"""Finite positive Borel measures on the disk and quadrature against them.

The reference weight is the probability measure

    dA_alpha(z) = (alpha + 1) (1 - |z|^2)^alpha dA(z),   alpha > -1,

with dA the normalized area measure. Integration uses a tensor rule that is
Gauss-Jacobi in the radial direction, with the boundary factor (1 - rho^2)^alpha
absorbed analytically into the Jacobi weight, and uniform (trapezoidal) in
angle. The radial substitution t = rho^2 gives

    int_D f dA_alpha = (alpha+1)/(2 pi) int_0^{2pi} int_0^1 f(sqrt(t) e^{i th}) (1-t)^alpha dt dth,

so a Jacobi rule with weight (1-x)^alpha on [-1, 1] integrates the radial
factor exactly for polynomial data, up to the rounding of scipy's nodes and
weights, which grows as alpha nears -1 and with the node count: at
alpha = -0.875 the moments of |z|^(2k), k <= 200, are off by up to 4.1e-10
relative with 256 nodes and 2.9e-9 with 512, so doubling does not refine.

Measure variants:

    RadialDensity(gamma, scale)      scale * (1 - |z|^2)^gamma dA
    WeightedArea(alpha)              dA_alpha, the RadialDensity(alpha, alpha + 1)
    PolyWeighted(u, p, beta)         |u(z)|^p dA_beta for polynomial u
    Atomic(points, masses)           finite sum of point masses (never quadrature)
    GridDensity(rule, values)        the Atomic with mass weight * value at each rule node
    SumMeasure(parts)                finite sum of the above

Atomic measures, GridDensity included, are discrete: every integral against
them is a finite sum and is evaluated exactly for the measure they represent.

Each measure evaluates its own kernel-power transform

    psi(a, t) = int_D ((1 - |a|^2) / |1 - conj(a) z|^2)^t dmu(z)

at a centre or an array of centres, by one of three paths, each with the
depth 1 - |a| to which it is validated:

- finite sum: one finite sum of Gauss functions 2F1 for every m |v|^2 dA_beta
  with polynomial v (``_psi_squared``), which takes radial densities (v = 1)
  and polynomial weights wherever |u|^p = m |v|^2 (``_as_square``: even p, or
  constant u); exact to about 1e-13 from 1 - |a| = 2^-1 to 2^-40;
- Fourier modes: the other polynomial weights, as a radial integral of the
  angular Fourier modes of |u|^p against those of the kernel power
  (``_psi_fourier``); within 1e-12 of the finite sum at even p and 1e-10 of
  its own refinement at other p, from 2^-1 to 2^-40, and refused with
  EvaluationError where its angular error estimate does not converge;
- atoms: a finite sum over the atoms, within 5e-16 relative of 40-digit
  mpmath for one atom, given 1 - |a|^2 exact: validated to 2^-40.

Every path reads 1 - |a|^2 as the y that ``Measure.psi`` hands it, which is
``one_minus_modulus_sq(a)`` unless the caller knows it better: ``psi_sup``
and ``psi_heatmap`` pass one y per ring of their grids. ``Measure.psi``
checks the centres and y, and refuses values that can only be a breakdown;
``Measure.disk_measure`` checks them in the same way (``_centers``), and
``carleson.disk_constant`` passes the lattice's one y per ring.

Each measure also gives the masses of the metric disks D(a, r)
(``disk_measure``), by one of three paths, which read that y. No path reads
a quadrature rule against dA_beta; both density paths pull each disk back
onto D(0, tanh r):

- disk series: every m |v|^2 (1-|z|^2)^w dA with polynomial v (radial
  densities, and polynomial weights where ``_as_square`` holds) sums a
  positive Beta series (``_disk_series``), to a term count set by its tail
  bound; within 1e-13 relative of 40-digit mpmath from 1 - |a| = 2^-1 to 2^-40;
- shared rule: the other polynomial weights (odd or non-integer p) integrate
  the pulled-back |u|^p on one polar Gauss rule that every centre shares
  (``_disk_rule``); with no zero of u in the disk, within 1e-13 of the
  exact series at even p and of a 4 times finer rule at p in {3, 1.5}, from
  2^-1 to 2^-40; a zero of u in or near the disk costs digits;
- atoms: the masses of the atoms inside each disk, exact.

Each measure also states the exponent e for which sup_a psi(a, t) is finite
exactly when e >= 0 (``boundary_exponent``): gamma + 2 - t for radial
densities, beta + 2 - t for polynomial weights, +inf for atoms and for the
zero measure, and the minimum over the parts for sums. It is formed in
rational arithmetic from the decimals the floats print as (``as_fraction``)
and rounded once, so its sign is exact: dA_alpha at t = 2 + alpha gives 0.

Each measure also integrates |f|^2 for a stack of polynomials f, one row of
ascending coefficients each (``square_integrals``): as sum_n |c_n|^2 times
the moments scale * B(n+1, gamma+1) for radial densities, as m times those
moments of v f for polynomial weights with |u|^p = m |v|^2 (on the rule
otherwise), as a finite sum over the atoms for atoms, and as the sum over the
parts for sums. Each measure says whether that is a sum of moments, whose cost
does not grow with a node or atom count (``moment_sums``): radial densities,
polynomial weights with |u|^p = m |v|^2, and sums of only those.
``poly_multiply`` and ``poly_power`` give the coefficients of products and
powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import betainc, binom, gammaln, hyp2f1, poch, roots_jacobi, xlog1py, xlogy
from scipy.special import gamma as gamma_function
from scipy.special import zeta as zeta_function
from scipy.special import beta as beta_function

from .config import validate
from .errors import ConfigurationError, EvaluationError
from .geometry import SpaceParams, as_disk_point, kernel_power_modulus, modulus, \
    one_minus_modulus_sq, pseudo_distance

DEFAULT_N_RADIAL = 256
DEFAULT_N_ANGULAR = 512
# The config schema's maxima, four times the defaults: 48 MiB of nodes and weights.
MAX_N_RADIAL = 1024
MAX_N_ANGULAR = 2048


@dataclass(frozen=True)
class QuadConfig:
    """Grid sizes for the disk rule. All quoted tolerances assume the defaults."""

    n_radial: int = DEFAULT_N_RADIAL
    n_angular: int = DEFAULT_N_ANGULAR

    def __post_init__(self):
        if not (4 <= self.n_radial <= MAX_N_RADIAL and 4 <= self.n_angular <= MAX_N_ANGULAR):
            raise ConfigurationError(
                f"node counts must lie in [4, {MAX_N_RADIAL}] x [4, {MAX_N_ANGULAR}], "
                f"got ({self.n_radial}, {self.n_angular})"
            )

    def doubled(self):
        return QuadConfig(2 * self.n_radial, 2 * self.n_angular)


DEFAULT_QUAD = QuadConfig()


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Tensor rule integrating f against dA_alpha over the disk.

    ``radial_sq`` holds the nodes t_i = rho_i^2 and ``radial_weights`` the
    weights v_i of the 1-d rule  int_0^1 g(t) (1-t)^alpha dt ~= sum v_i g(t_i),
    from which the full 2-d weights are assembled.
    """

    alpha: float
    nodes: np.ndarray          # (n_radial, n_angular) complex
    weights: np.ndarray        # (n_radial, n_angular) positive, sums to 1
    radial_sq: np.ndarray      # (n_radial,) nodes in t = rho^2
    radial_weights: np.ndarray  # (n_radial,) weights for (1-t)^alpha dt on [0, 1]

    @property
    def n_radial(self):
        return self.nodes.shape[0]

    @property
    def n_angular(self):
        return self.nodes.shape[1]

    def integrate(self, g):
        """Integrate a callable (or constant) against dA_alpha."""
        return _weighted_sum(self.weights, g(self.nodes) if callable(g) else g, self.nodes)


def _weighted_sum(weights, vals, nodes, density=None):
    """Sum of weights * vals, with vals times ``density`` if given.

    ``vals`` is a constant or the integrand at ``nodes``, in their shape;
    any other shape, such as a stack of integrands, raises ConfigurationError.
    """
    vals = np.asarray(vals)
    if vals.ndim and vals.shape != np.shape(weights):
        raise ConfigurationError(
            f"integrand must be a constant or shaped like the nodes {np.shape(weights)}, "
            f"got shape {vals.shape}")
    vals = np.broadcast_to(vals, np.shape(weights))
    if density is not None:
        vals = density * vals
    _check_finite(vals, nodes)
    return _as_scalar(np.sum(weights * vals))


def _check_finite(vals, nodes):
    """Raise naming the first node where ``vals``, shaped like ``nodes``, is not finite."""
    finite = np.isfinite(vals)
    if not np.all(finite):
        first = tuple(int(i) for i in np.argwhere(~np.atleast_1d(finite))[0])
        raise EvaluationError(
            f"integrand is not finite at quadrature node z = {np.atleast_1d(nodes)[first]} "
            f"(index {first})"
        )


def _as_scalar(x):
    x = complex(x)
    if abs(x.imag) <= 1e-15 * max(1.0, abs(x.real)):
        return x.real
    return x


# A rule at the default 256 x 512 nodes holds about 3 MB and a doubled one about
# 12 MB, so the cache pins at most 24 MB at default sizes and 96 MB at doubled
# ones. Counted per pass of the benchmark workloads: the carleson and operator
# suites build no rule; cold-mix at seed 7 builds two 128 x 256 rules, one per
# Blaschke operator, and reads each ten times (one miss, nine hits).
@lru_cache(maxsize=8)
def build_quadrature(alpha, n_radial=DEFAULT_N_RADIAL, n_angular=DEFAULT_N_ANGULAR):
    """Build (and cache) the tensor rule for dA_alpha."""
    if not alpha > -1:
        raise ConfigurationError(f"alpha must exceed -1, got {alpha}")
    if n_radial < 4 or n_angular < 4:
        raise ConfigurationError(
            f"node counts must be at least 4, got ({n_radial}, {n_angular})"
        )
    x, w = roots_jacobi(n_radial, alpha, 0.0)
    t = (x + 1.0) / 2.0
    v = w * 2.0 ** (-(1.0 + alpha))
    # Node [i, j] is rho_i exp(2 pi i j / n_angular), angles from 0.
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    nodes = np.outer(np.sqrt(t), np.exp(1j * theta))
    weights = (alpha + 1.0) * np.outer(v, np.ones(n_angular)) / n_angular
    rule = QuadratureRule(
        alpha=float(alpha),
        nodes=nodes,
        weights=weights,
        radial_sq=t,
        radial_weights=v,
    )
    for arr in (rule.nodes, rule.weights, rule.radial_sq, rule.radial_weights):
        arr.setflags(write=False)
    return rule


def _rule(alpha, quad: QuadConfig):
    return build_quadrature(float(alpha), quad.n_radial, quad.n_angular)


@lru_cache(maxsize=128)
def _euclid_disk_base(n_radial, n_angular):
    """Gauss-Legendre polar rule on the unit disk against normalized area."""
    x, w = roots_jacobi(n_radial, 0.0, 0.0)
    t = (x + 1.0) / 2.0
    base = np.outer(np.sqrt(t), np.exp(2j * np.pi * np.arange(n_angular) / n_angular))
    weights = np.outer(w / 2.0, np.ones(n_angular)) / n_angular
    return base, weights


def euclid_disk_rule(center, radius, n_radial=64, n_angular=128):
    """Nodes and weights for int over a Euclidean disk against normalized area dA."""
    base, weights = _euclid_disk_base(n_radial, n_angular)
    return center + radius * base, radius**2 * weights


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in z with complex coefficients, ascending powers."""

    coeffs: tuple

    @classmethod
    def from_coeffs(cls, seq):
        c = [complex(x) for x in seq]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [0j]
        return cls(tuple(c))

    @classmethod
    def from_pairs(cls, pairs):
        """Build from [re, im] coefficient pairs (the wire format)."""
        return cls.from_coeffs([complex(re, im) for re, im in pairs])

    def __call__(self, z):
        # Horner's rule in place: on arrays, the operations of numpy's polyval
        # in its order, without a temporary array per coefficient.
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            out *= z
            out += c
        return out[()]

    def __mul__(self, c):
        return Polynomial.from_coeffs([c * x for x in self.coeffs])

    __rmul__ = __mul__

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_constant(self):
        return self.degree == 0

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def to_pairs(self):
        return [[c.real, c.imag] for c in self.coeffs]


def poly_multiply(a, b):
    """Product of polynomials given by ascending coefficients on the last axis.

    The other axes broadcast, so a stack of polynomials, one per row, times
    one polynomial is a product per row.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    n = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (n + b.shape[-1] - 1,),
                   dtype=complex)
    for j in range(b.shape[-1]):
        out[..., j:j + n] += a * b[..., j, None]
    return out


# Rows of at most this many coefficients are raised to a power by repeated
# products, which are exact on small integer data; wider rows take one FFT.
DIRECT_POWER_WIDTH = 64


def poly_power(coeffs, k):
    """Ascending coefficients of the k-th power of each polynomial on the last axis.

    The first power is an exact copy. From k = 2 on, rows wider than
    DIRECT_POWER_WIDTH are raised with one FFT product, O(n log n) in the
    width n where repeated products are O(n^2), and every coefficient outside
    the power's exact support is set to zero, so zero coefficients of the
    power stay exactly zero.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if k == 1:
        return coeffs.copy()
    if k == 0 or coeffs.shape[-1] <= DIRECT_POWER_WIDTH:
        out = np.ones(coeffs.shape[:-1] + (1,), dtype=complex)
        for _ in range(k):
            out = poly_multiply(out, coeffs)
        return out
    n = k * (coeffs.shape[-1] - 1) + 1
    out = np.fft.ifft(np.fft.fft(coeffs, n) ** k, n)
    return np.where(_power_support(coeffs != 0, k), out, 0j)


def _power_support(nonzero, k):
    """Where the k-th power of each row can be nonzero: the k-fold sumset of the
    powers where ``nonzero`` holds, by integer convolution once per distinct row."""
    flat = nonzero.reshape(-1, nonzero.shape[-1])
    patterns, which = np.unique(flat, axis=0, return_inverse=True)
    n = k * (nonzero.shape[-1] - 1) + 1
    supports = np.empty((len(patterns), n), dtype=bool)
    for i, pattern in enumerate(patterns.astype(np.int64)):
        support = pattern
        for _ in range(k - 1):
            support = np.minimum(np.convolve(support, pattern), 1)
        supports[i] = support
    return supports[which.ravel()].reshape(nonzero.shape[:-1] + (n,))


# ---------------------------------------------------------------------------
# measures


class Measure:
    """Base class; subclasses are immutable after construction."""

    # Whether ``square_integrals`` is a sum of moments, O(degree) per row and
    # independent of any node count; a sum over atoms or rule nodes is not.
    moment_sums = False

    def integrate(self, g, quad: QuadConfig = DEFAULT_QUAD):
        """Integral of g, a constant or a callable on the measure's nodes.

        A callable returns the integrand at the nodes, in their shape; any
        other shape, such as a stack of integrands, raises ConfigurationError.
        """
        raise NotImplementedError

    def disk_measure(self, a, r, y=None):
        """Masses of the metric disks D(a, r), for a scalar or an array of centres.

        The masses come back in the shape of ``a``, and a scalar centre gives a
        float. ``y`` is 1 - |a|^2, checked as ``psi`` checks it and by default
        ``one_minus_modulus_sq(a)``; every ``_disk_masses`` reads it. Every
        density pulls each disk back onto D(0, tanh r): m |v|^2 (1-|z|^2)^w dA
        (radial densities, and polynomial weights with |u|^p = m |v|^2,
        ``_as_square``) sums a Beta series (``_disk_series``), radial densities
        once per distinct y; other polynomial weights integrate on one shared
        rule (``_disk_rule``). Both hold from 1 - |a| = 2^-1 to 2^-40. Atoms,
        grid densities included, sum the masses inside each disk. Every path
        works in batches of at most ``DISK_BATCH_NODES`` nodes, terms or
        centres x atoms.
        """
        a, y = _centers(a, y)
        masses = self._disk_masses(a.ravel(), y.ravel(), r)
        masses = masses.reshape(a.shape)
        return float(masses) if masses.ndim == 0 else masses

    def _disk_masses(self, centers, y, r):
        """mu(D(a, r)) for each a of the 1-d array ``centers``, with y = 1 - |a|^2."""
        raise NotImplementedError

    def total_mass(self, quad: QuadConfig = DEFAULT_QUAD):
        return float(self.integrate(1.0, quad))

    def psi(self, a, t, y=None):
        """Kernel-power transform int ((1-|a|^2)/|1-conj(a) z|^2)^t dmu(z).

        ``a`` is a centre or an array of centres in the open disk; the values
        come back in the shape of ``a``, and a scalar centre gives a float.
        ``y`` is 1 - |a|^2 for each centre, in the shape of ``a``, by default
        ``one_minus_modulus_sq(a)``; a caller that knows its centres' radius
        exactly passes it, so that the centres of one circle share one y.
        Centres outside the open disk, and a y that is not finite, not shaped
        like ``a`` or more than PSI_Y_TOL from ``one_minus_modulus_sq(a)``,
        raise ConfigurationError. A value that is NaN, or +inf where
        ``boundary_exponent(t)`` >= 0 says Psi is bounded, is a numerical
        breakdown and raises EvaluationError.
        """
        a, y = _centers(a, y)
        values = self._psi(a.ravel(), y.ravel(), t)
        broken = ~np.isfinite(values)
        if np.any(broken) and self.boundary_exponent(t) < 0:
            broken &= values != np.inf  # the overflow of a transform that does diverge
        if np.any(broken):
            k = int(np.argmax(broken))
            raise EvaluationError(
                f"Psi is {values[k]} at a = {a.ravel()[k]} (t = {t}): a numerical breakdown")
        values = values.reshape(a.shape)
        return float(values) if values.ndim == 0 else values

    def _psi(self, centers, y, t):
        """The transform at each a of the 1-d array ``centers``, with y = 1 - |a|^2."""
        raise NotImplementedError

    def boundary_exponent(self, t):
        """The e, exact in sign, with sup_a psi(a, t) finite iff e >= 0; t may be a Fraction."""
        raise NotImplementedError

    def square_integrals(self, coeffs, quad: QuadConfig = DEFAULT_QUAD):
        """int |f_i|^2 dmu for each polynomial f_i, one per row of ascending ``coeffs``."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 2 or coeffs.shape[1] == 0:
            raise ConfigurationError(
                f"need one row of coefficients per polynomial, got shape {coeffs.shape}")
        if len(coeffs) == 0:
            return np.zeros(0)
        return self._square_integrals(coeffs, quad)

    def _square_integrals(self, coeffs, quad):
        """The integrals of ``square_integrals`` for a 2-d complex ``coeffs``."""
        raise NotImplementedError

    def scaled(self, c):
        raise NotImplementedError

    def spec(self):
        """Round-trippable dict form (the wire format)."""
        raise NotImplementedError


def _centers(a, y=None):
    """``a`` as a complex array in the open disk, and y = 1 - |a|^2: by default
    ``one_minus_modulus_sq(a)``, else the given one, checked as ``Measure.psi`` states."""
    a = np.asarray(a, dtype=complex)
    outside = ~(np.abs(a) < 1)
    if np.any(outside):
        raise ConfigurationError(
            f"a must lie in the open unit disk, got {complex(a[outside].flat[0])}")
    exact = one_minus_modulus_sq(a)
    if y is None:
        return a, exact
    y = np.asarray(y, dtype=float)
    if y.shape != a.shape:
        raise ConfigurationError(f"y must have the shape {a.shape} of a, got {y.shape}")
    off = ~(np.abs(y - exact) <= PSI_Y_TOL)
    if np.any(off):
        k = int(np.argmax(off))
        raise ConfigurationError(
            f"y must be finite and within {PSI_Y_TOL:.3g} of 1-|a|^2, got "
            f"{y.flat[k]!r} at a = {a.flat[k]}, where 1-|a|^2 = {exact.flat[k]!r}")
    return a, y


# How far a y handed to ``Measure.psi`` may lie from ``one_minus_modulus_sq(a)``,
# absolute: four units of 2^-52. A ring's (1-rho)(1+rho) lies within 1.38 of
# them of its rounded points' own on ``psi_sup`` grids out to 1 - |a| = 2^-53
# with 1 to 1000 directions, and within 1.29 on heatmaps up to 1024 x 2048.
PSI_Y_TOL = 4 * 2.0**-52

# Node budget of one batch of disk masses, or of centres x atoms in an atomic
# transform, or of atoms x polynomials in ``square_integrals``: 2**16 complex
# nodes are 1 MB. Whole disks (and whole atom sets) go
# in a batch, so one larger than the budget goes alone.
DISK_BATCH_NODES = 2**16


def as_fraction(x):
    """x as an exact Fraction, a float read as the decimal it prints as (as a config has it)."""
    return x if isinstance(x, Fraction) else Fraction(str(x))


def _exponent(weight, t):
    """weight + 2 - t in rational arithmetic, rounded once, so its sign is exact."""
    return float(as_fraction(weight) + 2 - as_fraction(t))


def _hyp2f1_near_one(a, b, c, x, y):
    """2F1(a, b; c; 1 - y) for the exact y = 1 - |a|^2, given x, the rounded |a|^2.

    x is off 1 - y by about eps, which 1 - x = y magnifies wherever 2F1 has an
    unbounded derivative at 1, that is where c - a - b < 1: by 1.5e-6 relative
    in the logarithmic case c = a + b at 1 - |a| = 2^-40. There the first-order
    term (ab/c) 2F1(a+1, b+1; c+1; x) ((1 - x) - y) removes it; 1 - x is exact
    for x >= 1/2, and where x < 1/2 the correction is below the rounding.
    Both 2F1 go through ``_hyp2f1``.
    """
    f = _hyp2f1(a, b, c, x)
    if c - a - b < 1:
        f = f + a * b / c * _hyp2f1(a + 1.0, b + 1.0, c + 1.0, x) * ((1.0 - x) - y)
    return f


# Where c - a - b lies within this of an integer without being one, ``_hyp2f1``
# interpolates between parameters that put it at _STEP multiples off the integer.
_NEAR_INTEGER = 1e-4
_STEP = 2.0**-11
# Where c - a - b is also near a negative integer, a or b this close to 0 is refused.
_SMALL_PARAMETER = 1e-4


def _hyp2f1(a, b, c, x):
    """scipy's 2F1(a, b; c; x), made accurate near x = 1 where c - a - b is nearly an integer.

    scipy is accurate near x = 1 where d = c - a - b is an integer k, but not
    where d is close to one: on 150 random a, b, c with k in 0..6 and
    1 - x in [2^-40, 2^-7], scipy was off by 8e-10 relative at |d - k| = 1e-5,
    by up to 1e7 at 1e-6 to 1e-14, and inf on 26 at 1e-14. For
    0 < |d - k| < 1e-4, a and c are rounded to multiples of
    q = 4 spacing(max(|a|, |b|, |c|, |k|)), so that b0 = c - a - k and
    b0 + s 2^-11 are exact and give c - a - b = k - s 2^-11 exactly. 2F1 is
    analytic in b, and the degree-4 interpolant through s = -2..2 is taken at
    (k - d)/2^-11 as f_0 + sum L_s (f_s - f_0), which is f_0 exactly where
    the f_s agree. It was then within 5e-13 of a 40-digit oracle at every
    such offset, and scipy alone within 1.1e-11 at 1e-4 to 5e-4.

    Where d lies within _NEAR_INTEGER of a negative integer k, scipy drops a
    small a or b (a, b, c = 3, 1e-20, 1 give 1.0 for 6.90 at 1 - x = 2^-36;
    at |b| = 1e-6 it is off by 1.1e-9 relative). So there this raises
    EvaluationError if a or any b it would pass scipy lies within
    _SMALL_PARAMETER of 0; off the integer, the interpolation's b lie within
    |d - k| + 2^-10 of b. With both at least _SMALL_PARAMETER from 0, scipy
    was within 2.8e-12 on 200 random cases at an integer d. No 2F1 of
    ``_psi_squared`` is refused: its own have d >= 0, and the correction of
    ``_hyp2f1_near_one`` shifts a and b by 1 away from 0.
    """
    d = c - a - b
    k = round(d)
    near = abs(d - k) < _NEAR_INTEGER
    reach = 0.0 if d == k else _NEAR_INTEGER + 2.0 * _STEP
    if near and k < 0 and min(abs(a), abs(b) - reach) < _SMALL_PARAMETER:
        raise EvaluationError(
            f"2F1({a}, {b}; {c}; x) has c - a - b = {d} near the negative integer {k} "
            f"and a parameter within {_SMALL_PARAMETER:g} of 0, which scipy's 2F1 drops")
    if not near or d == k:
        return hyp2f1(a, b, c, x)
    q = 4.0 * np.spacing(max(abs(a), abs(b), abs(c), abs(k)))
    a, c = np.round(a / q) * q, np.round(c / q) * q
    b0 = c - a - k
    u = (k - d) / _STEP
    f0 = hyp2f1(a, b0, c, x)
    f = f0
    for s in (-2, -1, 1, 2):
        lagrange = np.prod([(u - r) / (s - r) for r in range(-2, 3) if r != s])
        f = f + lagrange * (hyp2f1(a, b0 + s * _STEP, c, x) - f0)
    return f


def _psi_squared(v, beta, centers, y, t):
    """Psi of |v|^2 dA_beta at each a of the 1-d ``centers``, v = sum_j v_j z^j a polynomial.

    With x = |a|^2, d = j - k >= 0 and c = j + beta + 2, the angular average
    of the kernel power against e^(i d theta) is a^d rho^d (t)_d/d!
    2F1(t, t+d; d+1; x rho^2), and Euler's integral against rho^(j+k) dA_beta
    turns the pair v_j conj(v_k) z^j conj(z)^k of |v|^2, with its conjugate,
    into (1-x)^t e Re[v_j conj(v_k) a^d] (t)_d/d! j!/(beta+2)_j
    3F2(t, t+d, j+1; d+1, c; x), e = 1 on the diagonal and 2 off it; the
    radial factor j!/(beta+2)_j = (beta+1) B(j+1, beta+1) is exactly 1 at
    j = 0. As (j+1)_m/(d+1)_m is a polynomial of degree k in m, the 3F2 is
    the finite positive sum
    sum_{i<=k} binom(k, i)/(d+1)_i (t)_i (t+d)_i/(c)_i x^i 2F1(t+i, t+d+i; c+i; x).
    Where c - 2t - d - i < 0, Euler's transformation (DLMF 15.8.1) writes
    (1-x)^t 2F1 as (1-x)^(c-t-d-i) 2F1(c-t, c-t-d; c+i; x), so each 2F1 has
    c - a - b >= 0. For v = 1 this is (1-x)^m 2F1(m, m; beta+2; x) with
    m = min(t, beta + 2 - t), exactly 1 for dA_beta at t = beta + 2. 1 - x
    is the caller's y, and each 2F1 comes from ``_hyp2f1_near_one``.

    Against 40-digit oracles from 1 - |a| = 2^-1 to 2^-40, on and off the
    real axis: radial weights within 1.7e-13 relative (3e-11 where c - 2m < 1),
    u in {z, z^2, 1+z/2, 1-z} at p in {2, 4} within 2.7e-13 of the 3F2 sum,
    and 2.6e-12 where c - a - b is within rounding of an integer. The terms
    cancel where v is small near a/|a|, so the error is about eps times the
    sum of their moduli, which by Cauchy-Schwarz is at most deg(v) + 1 times
    the mean of Psi over the circle of radius |a|: a sup keeps its accuracy.
    Validated depth: 1 - |a| from 2^-1 to 2^-40, given y exact to an ulp at
    every depth, as ``Measure.psi`` checks it.
    """
    x = modulus(centers) ** 2
    total = np.zeros(len(centers))
    for j, vj in enumerate(v):
        c = j + beta + 2.0
        radial = poch(1.0, j) / poch(beta + 2.0, j)
        for k in range(j + 1):
            pair = vj * np.conj(v[k])
            if pair == 0:
                continue
            d = j - k
            series = np.zeros(len(centers))
            for i in range(k + 1):
                coef = binom(k, i) / poch(d + 1.0, i) * poch(t, i) * poch(t + d, i) / poch(c, i)
                if c - 2.0 * t - d - i < 0:
                    term = (y ** (c - t - d - i)
                            * _hyp2f1_near_one(c - t, c - t - d, c + i, x, y))
                else:
                    term = y**t * _hyp2f1_near_one(t + i, t + d + i, c + i, x, y)
                series += coef * x**i * term
            weight = (1.0 if d == 0 else 2.0) * poch(t, d) / poch(1.0, d) * radial
            total += weight * np.real(pair * centers**d) * series
    return total


# Relative truncation error of ``_disk_series``, and the multiple its term
# counts are rounded up to, so that centres needing about as many terms share
# a batch while each centre's count depends on its own y alone.
DISK_SERIES_TOL = 2.0**-64
DISK_SERIES_STEP = 16


def _pulled_back(coeffs, centers, y):
    """Rows of the coefficients of u(phi_a(w)) (1 - conj(a) w)^e, turned by a/|a|.

    u has degree e. With u(z) = sum_k U_k (z - a)^k, its Taylor coefficients
    at each centre (repeated synthetic division), and phi_a(w) - a =
    -y w / (1 - conj(a) w), the polynomial is sum_k U_k (-y w)^k
    (1 - conj(a) w)^(e-k). The turn w -> (a/|a|) w, which keeps every disk
    |w| < s, makes conj(a) the real |a|. y enters exactly, and a zero of u
    near a costs no digits: for u = 1 - z, U_0 = 1 - a is exact, where the
    expanded v(a) = 1 - 2a + a^2 of p = 4 keeps none at 1 - a = 2^-40. So
    callers raise these rows to p/2, not the coefficients of v.
    """
    e = len(coeffs) - 1
    taylor = np.repeat(np.asarray(coeffs, dtype=complex)[None, :], len(centers), axis=0)
    for i in range(e):
        for j in range(e - 1, i - 1, -1):
            taylor[:, j] += centers * taylor[:, j + 1]
    rho = modulus(centers)
    turn = np.where(rho > 0, centers / np.where(rho > 0, rho, 1.0), 1.0)
    out = np.zeros_like(taylor)
    for k in range(e + 1):
        lead = taylor[:, k] * (-y * turn) ** k
        for j in range(k, e + 1):
            out[:, j] += lead * binom(e - k, j - k) * (-rho) ** (j - k)
    return out


def _series_counts(lam, weight, s2, x, d):
    """Terms of ``_disk_series`` at each x = |a|^2, a multiple of DISK_SERIES_STEP,
    found once per distinct x.

    With R_n = (lam)_n/n! |a|^n and B_n = B(s^2; n+1, weight+1), the radial
    terms t_n = R_n^2 B_n have t_(n+1)/t_n <= rho_n = ((lam+n)/(n+1))^2 x s^2,
    as B_(n+1) <= s^2 B_n, and rho_n falls with n, as lam > 1. So
    t_N <= t_0 ((lam)_N/N!)^2 (x s^2)^N, and past the terms' peak, where
    rho_N < 1, the tail after N is at most t_N rho_N / (1 - rho_N), a bound
    that falls with N. N is the least index past the peak where it is below
    DISK_SERIES_TOL t_0, bracketed by doubling and found by bisection; t_0
    is at most the sum. For
    d > 0 the bound on the tail after N + d is (d+1) |Q|^2 times the radial
    one (Cauchy-Schwarz, B_n <= B_(n-j)), and the sum is at least
    |Q|^2 B_d (1+s)^(-2 lam), so the target is lowered by
    log((d+1) B_0/B_d) + 2 lam log(1+s). A count beyond DISK_BATCH_NODES,
    which only radii far past 1 reach, raises EvaluationError.
    """
    target = np.log(DISK_SERIES_TOL)
    if d:
        b = betainc([1.0, d + 1.0], weight + 1.0, s2) * beta_function([1.0, d + 1.0], weight + 1.0)
        target -= np.log((d + 1.0) * b[0] / b[1]) + 2.0 * lam * np.log1p(np.sqrt(s2))
    x, where = np.unique(x, return_inverse=True)
    xs = x * s2
    log_k0 = gammaln(lam)

    def log_rho(n):
        return 2.0 * np.log((lam + n) / (n + 1.0)) + np.log(xs)

    def log_tail(n):
        return (2.0 * (gammaln(lam + n) - log_k0 - gammaln(n + 1.0)) + xlogy(n, xs)
                + log_rho(n) - np.log1p(-np.exp(log_rho(n))))

    cap = DISK_BATCH_NODES - DISK_SERIES_STEP - d
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 1.0 / np.sqrt(xs)  # rho_n < 1 exactly where n > (lam - q)/(q - 1)
        lo = np.where(xs > 0, np.floor(np.maximum((lam - q) / (q - 1.0), -1.0)) + 1.0, 0.0)
        lo = np.minimum(lo + (log_rho(lo) >= 0), cap)
        hi = np.minimum(lo + DISK_SERIES_STEP, cap)
        while True:  # double the reach past the peak until the bound is met
            short = ~(log_tail(hi) <= target)  # NaN where hi is still before the peak
            if not np.any(short & (hi < cap)):
                break
            hi = np.where(short, np.minimum(lo + 2.0 * (hi - lo), cap), hi)
        if np.any(short):
            k = int(np.argmax(short))
            raise EvaluationError(
                f"the disk series needs more than {cap} terms at |a|^2 = {float(x[k])!r}, "
                f"tanh(r)^2 = {float(s2)!r}")
        while np.any(lo < hi):
            mid = np.floor((lo + hi) / 2.0)
            below = log_tail(mid) <= target
            hi, lo = np.where(below, mid, hi), np.where(below, lo, mid + 1.0)
    last = hi.astype(int)[where] + d
    return (last // DISK_SERIES_STEP + 1) * DISK_SERIES_STEP


def _disk_series(coeffs, weight, y, r):
    """sum_n |g_n|^2 B(s^2; n+1, weight+1) at each centre, for s = tanh(r).

    Pulled back by z = phi_a(w), D(a, r) is |w| < s, and
    m |v|^2 (1-|z|^2)^weight dA(z) = m y^(weight+2) |g(w)|^2 (1-|w|^2)^weight dA(w),
    y = 1 - |a|^2, with g = Q(w) (1 - |a| w)^(-lam), lam = weight + 2 + d, and
    Q of degree d the row of ``coeffs`` (``_pulled_back``; 1 for radial
    densities). The monomials are orthogonal on |w| < s against the radial
    weight, and int_(|w|<s) |w|^(2n) (1-|w|^2)^weight dA = B(s^2; n+1, weight+1)
    = betainc(n+1, weight+1, s^2) beta(n+1, weight+1). The g_n are the
    (d+1)-term convolution of Q with (lam)_n |a|^n / n!; so the mass is
    m y^(weight+2) times this sum, which the caller forms.

    The terms are formed as (lam)_n/n! sqrt(B_n) |a|^n, with
    |a|^n = exp(n/2 log1p(-y)) from the exact y, and sqrt(B_n/B_(n-j)) for
    the shifted ones, so none overflows before the sum would. The count of
    terms is ``_series_counts``, which keeps the truncation below
    DISK_SERIES_TOL of the sum. At r = 1 and 1 - |a| = 2^-40 that is 112
    terms for weight 0, 656 for weight 40, and 160 for |v|^2 of degree 2 at
    weight 0.37. Centres are
    grouped by count and batched centres x terms within DISK_BATCH_NODES;
    each centre's count and arithmetic depend on its own row and y alone.

    Against 40-digit mpmath from 1 - |a| = 2^-1 to 2^-40, on and off the
    axis, at r in {0.1, 0.5, 1}: radial weights from -0.95 to 40 and
    u in {z, 1+z/2, 1-z, a quadratic} at p in {2, 4}, within 1e-13 relative.
    Validated depth: 2^-1 to 2^-40, given y exact to an ulp.
    """
    d = coeffs.shape[1] - 1
    lam = weight + 2.0 + d
    s2 = np.tanh(r) ** 2
    counts = _series_counts(lam, weight, s2, 1.0 - y, d)
    out = np.empty(len(y))
    if not len(y):
        return out
    n = np.arange(counts.max(), dtype=float)
    moments = betainc(n + 1.0, weight + 1.0, s2) * beta_function(n + 1.0, weight + 1.0)
    scaled = np.cumprod(np.concatenate([[1.0], (lam + n[:-1]) / n[1:]])) * np.sqrt(moments)
    shifts = [np.sqrt(np.divide(moments[j:], moments[:-j], out=np.zeros(n.size - j),
                                where=moments[:-j] > 0)) for j in range(1, d + 1)]
    for count in np.unique(counts):
        rows = np.flatnonzero(counts == count)
        step = max(1, DISK_BATCH_NODES // count)
        for lo in range(0, len(rows), step):
            k = rows[lo:lo + step]
            terms = scaled[:count] * np.exp(0.5 * xlog1py(n[:count], -y[k, None]))
            g = coeffs[k, :1] * terms
            for j in range(1, d + 1):
                g[:, j:] += coeffs[k, j:j + 1] * shifts[j - 1][:count - j] * terms[:, :-j]
            out[k] = np.sum(g.real**2 + g.imag**2, axis=1)
    return out


# The shared rule of ``_disk_rule``: DISK_RULE_RADIAL radii, and the first of
# DISK_RULE_ANGLES that meets DISK_RULE_TOL per unit of the kernel exponent.
DISK_RULE_RADIAL = 64
DISK_RULE_ANGLES = (128, 256, 512, 1024, 2048, 4096)
DISK_RULE_TOL = 2.0**-46


@lru_cache(maxsize=8)
def _kernel_rule(beta, r):
    """Nodes w and weights (1-|w|^2)^beta dA(w) of the polar Gauss rule of ``_disk_rule``.

    Its angle count is the first at which the rule integrates the kernel
    factor where it peaks most (|a| -> 1), (1-|w|^2)^beta |1-w|^(-2 beta-4) on
    |w| < tanh(r), within DISK_RULE_TOL (2 beta + 4) relative of its
    ``_disk_series`` at y = 0; the rounding of |1 - w| is amplified by that
    exponent. At r = 1: 128 angles to beta = 1, 256 to beta = 20, 512 at 50.
    Past the last count, from about r = 2.5, it raises EvaluationError.
    """
    exponent = 2.0 * beta + 4.0
    exact = _disk_series(np.ones((1, 1)), beta, np.zeros(1), r)[0]
    for n_angular in DISK_RULE_ANGLES:
        nodes, weights = euclid_disk_rule(0.0, np.tanh(r), DISK_RULE_RADIAL, n_angular)
        nodes, weights = nodes.ravel(), weights.ravel() * (1.0 - np.abs(nodes.ravel()) ** 2) ** beta
        if abs(weights @ np.abs(1.0 - nodes) ** -exponent / exact - 1.0) <= DISK_RULE_TOL * exponent:
            return nodes, weights
    raise EvaluationError(f"the disk rule needs more than {n_angular} angles at beta = {beta!r}, "
                          f"r = {r!r}")


def _disk_rule(coeffs, p, beta, centers, y, r):
    """int |P_a(w)|^p (1-|w|^2)^beta |1 - |a| w|^(-(e p + 2 beta + 4)) dA(w) on
    |w| < tanh(r), at each centre, for u of degree e with ascending ``coeffs``.

    Pulled back by z = phi_a(w), |u|^p dA_beta on D(a, r) is (beta+1) y^(beta+2)
    times this integrand, with P_a the row of ``_pulled_back``; the caller
    forms that factor. As |1 - |a| w| >= 1 - tanh(r), the integrand is smooth
    at every depth but at zeros of u, and all centres share one rule
    (``_kernel_rule``), in batches of centres x nodes within DISK_BATCH_NODES.

    With no zero of u in the disk (u in {1 + z/2, a quadratic}, beta = 0.37,
    r in {0.5, 1}), within 1e-13 relative of ``_disk_series`` at p in {2, 4}
    and of a 4 times finer rule at p in {3, 1.5}. Validated depth: 2^-1 to
    2^-40, given y exact to an ulp. A zero of u in or near the disk puts a
    kink of |u|^p on the rule: over 60 random placements, median 3e-9 and
    worst 1.7e-5 relative at p = 1.5, median 3e-12 and worst 5.4e-7 at p = 3.
    """
    nodes, weights = _kernel_rule(float(beta), float(r))
    rows = _pulled_back(coeffs, centers, y)
    half = ((rows.shape[1] - 1) * p + 2.0 * beta + 4.0) / 2.0
    rho = modulus(centers)[:, None]
    step = max(1, DISK_BATCH_NODES // nodes.size)
    out = np.empty(len(centers))
    for lo in range(0, len(centers), step):
        vals = np.repeat(rows[lo:lo + step, -1:], nodes.size, axis=1)
        for j in range(rows.shape[1] - 2, -1, -1):
            vals *= nodes
            vals += rows[lo:lo + step, j:j + 1]
        at = rho[lo:lo + step]
        kernel = (1.0 - at * nodes.real) ** 2 + (at * nodes.imag) ** 2
        vals = (vals.real**2 + vals.imag**2) ** (p / 2.0) * kernel**-half
        _check_finite(vals, np.broadcast_to(nodes, vals.shape))
        out[lo:lo + step] = vals @ weights
    return out


# ---------------------------------------------------------------------------
# angular Fourier modes of the kernel power

# The Fourier coefficients kappa_m of |1 - w e^(i phi)|^(-2t) are evaluated in
# the scaled form kappa_m zeta^(2t-1), zeta = 1 - w^2, which stays O(1) at the circle.
# Below _CONNECTION_ZETA, where m zeta <= _CONNECTION_REACH, they come from the
# 1 - z connection with both series in zeta, summed to _CONNECTION_TERMS terms.
_CONNECTION_ZETA = 2.0**-4
_CONNECTION_REACH = 2.0
_CONNECTION_TERMS = 40
# Where 2t lies within _T_STEP of an integer the connection is undefined or
# cancels; it is interpolated in t through _T_NODES multiples of _T_STEP off it.
_T_STEP = 2.0**-6
_T_NODES = np.array([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6], dtype=float)
# Between the connection and zeta = 1/2, on each dyadic level
# [2^-(k+1), 2^-k) of zeta, they are interpolated from _MODE_TABLE_NODES + 1
# Chebyshev points where an FFT of the kernel gives them.
_MODE_TABLE_NODES = 24


class _BoundedCache:
    """A cache of arrays, or tuples of arrays, that evicts its least recently used
    entries while it holds more than ``limit`` bytes."""

    def __init__(self, limit):
        self.limit, self.entries, self.bytes = limit, {}, 0

    def get(self, key):
        value = self.entries.pop(key, None)
        if value is not None:
            self.entries[key] = value
        return value

    def put(self, key, value):
        if key in self.entries:
            self.bytes -= self._size(self.entries.pop(key))
        self.entries[key] = value
        self.bytes += self._size(value)
        while self.bytes > self.limit and len(self.entries) > 1:
            self.bytes -= self._size(self.entries.pop(next(iter(self.entries))))
        return value

    @staticmethod
    def _size(value):
        return sum(np.asarray(a).nbytes for a in (value if isinstance(value, tuple) else (value,)))


def _mode_width(m_max):
    """The least power of two >= m_max, the width the connection tables are asked for."""
    return 1 << max(0, int(m_max - 1).bit_length())


def _kernel_modes(t, zeta, m_max):
    """kappa_m zeta^(2t-1) for m = 0..m_max, one row per zeta = 1 - w^2 of the 1-d ``zeta``.

    kappa_m = w^m (t)_m/m! 2F1(t, t+m; m+1; w^2) is the m-th Fourier coefficient
    of |1 - w e^(i phi)|^(-2t); it is positive, at most kappa_0, and depends on w
    only through zeta, so w^m is (1 - zeta)^(m/2) and no 1 - w^2 is ever formed.
    Three routines share the range of zeta:

    - zeta >= 1/2: the series in x = 1 - zeta above, all of whose terms are
      positive (``_series_modes``);
    - zeta < _CONNECTION_ZETA and m_max zeta <= _CONNECTION_REACH (four times
      that past 512 modes): the 1 - z connection (DLMF 15.8.4), both series
      in zeta (``_connection_modes``);
    - otherwise: Chebyshev interpolation on the dyadic level of zeta, from
      values an FFT of the kernel gives exactly up to its aliasing
      (``_table_modes``).

    Against 40-digit mpmath values at t in {0.3, 1, 1.77, 2, 2.5, 5/2 +- 5e-7,
    4.6, 5.12}, 1 - w from 2^-40 to 1/2 and m <= 256, every mode is within
    1.6e-13 of kappa_0. A mode's error enters Psi multiplied by the mode of
    |u|^p, which is at most its mean, so kappa_0 is the scale that matters.
    Past 512 modes the connection runs to m zeta = 8, where it is within
    6.1e-11 of kappa_0 at t in {1.77, 2, 2.3, 2.5, 2.5 + 2^-6, 3.2, 4.6, 5.12}
    and zeta in {2^-8, 2^-10}; those modes meet circle modes of |u|^p below
    1e-3 of its mean.
    """
    zeta = np.asarray(zeta, dtype=float)
    out = np.empty((len(zeta), m_max + 1))
    series = zeta >= 0.5
    reach = _CONNECTION_REACH * (1.0 if m_max <= 512 else 4.0)
    connection = ~series & (zeta < _CONNECTION_ZETA) & (zeta * m_max <= reach)
    table = ~series & ~connection
    for where, routine in ((series, _series_modes), (connection, _connection_modes),
                           (table, _table_modes)):
        if np.any(where):
            out[where] = routine(t, zeta[where], m_max)
    return out


@lru_cache(maxsize=8)
def _series_table(t):
    """Coefficients c[m, k] with kappa_m = w^m sum_k c[m, k] x^k, x = w^2, for m <= 128 + 16 t.

    At x <= 1/2 the terms fall below 1e-18 of the first well before 64 + 12 t,
    and the modes past 128 + 16 t are below 2^-(m/2) m^(t-1), under 1e-20 of kappa_0.
    """
    width = 128 + 16 * int(np.ceil(t))
    terms = 64 + int(np.ceil(12.0 * t))
    m = np.arange(width + 1, dtype=float)
    k = np.arange(terms - 1, dtype=float)
    lead = np.cumprod(np.concatenate([[1.0], (t + m[:-1]) / m[1:]]))        # (t)_m / m!
    ratio = (t + k) * ((t + m[:, None]) + k) / (((m[:, None] + 1.0) + k) * (k + 1.0))
    table = lead[:, None] * np.cumprod(
        np.concatenate([np.ones((width + 1, 1)), ratio], axis=1), axis=1)
    table.setflags(write=False)
    return table


def _series_modes(t, zeta, m_max):
    """``_kernel_modes`` at zeta >= 1/2 from the power series in x = 1 - zeta, which is exact;
    the modes past ``_series_table``'s width are 0."""
    table = _series_table(t)[:m_max + 1]
    x = 1.0 - zeta
    modes = np.zeros((len(zeta), m_max + 1))
    modes[:, :len(table)] = ((x[:, None] ** np.arange(table.shape[1])) @ table.T
                             * np.power(x[:, None], 0.5 * np.arange(len(table)))
                             * zeta[:, None] ** (2 * t - 1))
    return modes


_CONNECTION_TABLES = {}


def _connection_tables(t, width):
    """The connection's coefficient tables for m <= width, at t or its interpolation nodes.

    With d = 2t - 1, kappa_m zeta^d = w^m [B F(m+1-t, 1-t; 1-d; zeta)
    + A_m zeta^d F(t, t+m; 1+d; zeta)], B = Gamma(d)/Gamma(t)^2 and
    A_m = Gamma(t)^2 tan(pi t)/(2 pi Gamma(2t)) prod_{j<=m} (j-1+t)/(j-t), the
    reflection form of Gamma(t+m)Gamma(-d)/(Gamma(t)Gamma(1-t)Gamma(m+1-t)),
    whose product keeps full accuracy where scipy's poch loses 5e-12 at
    m = 4096. Returns
    (first, second): ``first`` is the sum over the nodes t_j of L_j B a, with a
    the first series' coefficients, and ``second`` lists (L_j A_m b, d_j), with b
    the second's, where L_j are the Lagrange weights of t among the nodes (one
    node, t itself, weighted 1, away from the integers). Every row depends on m
    alone, so the tables of the last two t are kept at the widest width asked
    for and grown by rebuilding, which leaves the rows already given unchanged.
    A table set holds 2 (width + 1) _CONNECTION_TERMS doubles, 2.6 MB at
    PSI_MAX_ANGLES/2 modes, and 13 times that where t is interpolated.
    """
    tables = _CONNECTION_TABLES.pop(t, None)
    if tables is None or len(tables[0]) <= width:
        size = width if tables is None else max(width, 2 * (len(tables[0]) - 1))
        tables = _build_connection_tables(t, size)
    _CONNECTION_TABLES[t] = tables
    while len(_CONNECTION_TABLES) > 2:
        _CONNECTION_TABLES.pop(next(iter(_CONNECTION_TABLES)))
    return tables


def _build_connection_tables(t, width):
    """``_connection_tables`` for m <= width, built afresh."""
    n = round(2.0 * t)
    if abs(t - n / 2.0) >= _T_STEP:
        nodes, weights = [t], [1.0]
    else:
        u = (t - n / 2.0) / _T_STEP
        s = _T_NODES if n > 0 else np.arange(1.0, len(_T_NODES) + 1.0)
        nodes = [n / 2.0 + sj * _T_STEP for sj in s]
        weights = [np.prod([(u - sr) / (sj - sr) for sr in s if sr != sj]) for sj in s]
    m = np.arange(width + 1, dtype=float)[:, None]
    k = np.arange(_CONNECTION_TERMS - 1, dtype=float)
    ones = np.ones((width + 1, 1))
    first, second = 0.0, []
    for tj, weight in zip(nodes, weights):
        a = np.cumprod(np.concatenate(
            [ones, ((m + 1.0 + k) - tj) * ((1.0 + k) - tj) / (((2.0 + k) - 2.0 * tj) * (k + 1.0))],
            axis=1), axis=1)
        b = np.cumprod(np.concatenate(
            [ones, (tj + k) * ((tj + m) + k) / ((2.0 * tj + k) * (k + 1.0))], axis=1), axis=1)
        ratio = ((m[1:, 0] - 1.0) + tj) / (m[1:, 0] - tj)
        a_m = np.cumprod(np.concatenate([[1.0], ratio])) * (
            gamma_function(tj) ** 2 * np.tan(np.pi * tj) / (2.0 * np.pi * gamma_function(2.0 * tj)))
        first = first + weight * gamma_function(2.0 * tj - 1.0) / gamma_function(tj) ** 2 * a
        second.append((weight * a_m[:, None] * b, 2.0 * tj - 1.0))
    return first, second


def _connection_modes(t, zeta, m_max):
    """``_kernel_modes`` near the circle by the 1 - z connection (``_connection_tables``)."""
    first, second = _connection_tables(t, _mode_width(m_max))
    powers = zeta[:, None] ** np.arange(_CONNECTION_TERMS)
    modes = powers @ first[:m_max + 1].T
    for table, d in second:
        modes += zeta[:, None] ** d * (powers @ table[:m_max + 1].T)
    return np.exp(0.5 * np.arange(m_max + 1) * np.log1p(-zeta)[:, None]) * modes


def _fft_modes(t, zeta, m_max):
    """``_kernel_modes`` by an FFT of the kernel on N points, exact up to its aliasing.

    The aliasing is sum_{k != 0} kappa_(m+kN), below 1e-18 of kappa_0 for
    N >= 2 m_max + 2 + 48/(1 - w); 1 - w = zeta/(1 + w) and
    |1 - w e^(i phi)|^2 = (1-w)^2 + 4 w sin^2(phi/2) are formed without
    cancellation. Batches hold at most DISK_BATCH_NODES points.
    """
    w = np.sqrt(1.0 - zeta)
    gap = zeta / (1.0 + w)
    sizes = 1 << np.ceil(np.log2(2 * m_max + 2 + 48.0 / gap)).astype(int)
    out = np.empty((len(zeta), m_max + 1))
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        half = np.sin(np.pi * np.arange(size // 2 + 1) / size) ** 2
        step = max(1, DISK_BATCH_NODES // size)
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            kernel = (gap[r, None] ** 2 + 4.0 * w[r, None] * half) ** -t
            kernel *= zeta[r, None] ** (2 * t - 1)
            full = np.concatenate([kernel, kernel[:, -2:0:-1]], axis=1)
            out[r] = np.fft.rfft(full, axis=1)[:, :m_max + 1].real / size
    return out


def _chebyshev_points(n):
    """Chebyshev points cos(j pi/n), j = 0..n, and their barycentric weights."""
    j = np.arange(n + 1)
    weights = (-1.0) ** j
    weights[[0, -1]] *= 0.5
    return np.cos(np.pi * j / n), weights


# 8 MB of mode tables hold every level a Psi grid asks for.
_MODE_TABLES = _BoundedCache(2**23)


def _mode_table(t, level, width):
    """``_fft_modes`` for m <= width at the Chebyshev points of [2^-(level+1), 2^-level],
    up to the last mode above 1e-16 of the level's largest kappa_0: the FFT's
    round-off is 1e-17 to 4e-17 of it, so past that the modes are noise, and
    0 serves as well."""
    key = (t, level, width)
    table = _MODE_TABLES.get(key)
    if table is None:
        x, _ = _chebyshev_points(_MODE_TABLE_NODES)
        lo, hi = 2.0 ** -(level + 1), 2.0 ** -level
        table = _fft_modes(t, lo + (hi - lo) * (x + 1.0) / 2.0, width)
        kept = np.flatnonzero(np.max(np.abs(table), axis=0) > 1e-16 * table[:, 0].max())[-1]
        table = _MODE_TABLES.put(key, np.ascontiguousarray(table[:, :kept + 1]))
    return table


def _table_modes(t, zeta, m_max):
    """``_kernel_modes`` by barycentric interpolation in zeta on its dyadic level.

    The scaled modes are analytic in zeta off zeta <= 0 and zeta >= 1, which on
    a level [h, 2h] leaves a Bernstein ellipse of parameter 5.8: the 25-point
    interpolant is exact to below 1e-18 of the level's largest value. The
    tables hold 512 modes, or PSI_MAX_ANGLES/2 for more, so a table's values do
    not depend on the m_max that first asked for it.
    """
    x, weights = _chebyshev_points(_MODE_TABLE_NODES)
    width = 512 if m_max <= 512 else PSI_MAX_ANGLES // 2
    level = -np.frexp(zeta)[1]            # zeta in [2^-(level+1), 2^-level)
    out = np.zeros((len(zeta), m_max + 1))
    for k in np.unique(level):
        rows = np.flatnonzero(level == k)
        lo, hi = 2.0 ** -(k + 1), 2.0 ** -k
        gaps = ((2.0 * zeta[rows] - lo - hi) / (hi - lo))[:, None] - x
        exact = gaps == 0.0
        basis = weights / np.where(exact, 1.0, gaps)
        basis = np.where(np.any(exact, axis=1)[:, None], exact, basis)
        basis /= basis.sum(axis=1, keepdims=True)
        table = _mode_table(t, int(k), width)[:, :m_max + 1]
        out[rows, :table.shape[1]] = basis @ table
    return out


def _kernel_mode_bound(t, zeta, m):
    """An upper bound of kappa_m zeta^(2t-1) for m >= 1, one row per zeta, one column per m.

    kappa_m is the integral of (1 - w e^(i phi))^(-t) (1 - w e^(-i phi))^(-t)
    e^(-i m phi)/(2 pi); moving phi to phi - i eta bounds it by e^(-m eta)
    (1 - w e^eta)^(-t) (1 - w e^-eta)^(-t), and w e^eta = m/(m+t) nearly
    minimises that. Where m/(m+t) <= w the bound is +inf.
    """
    w = np.sqrt(1.0 - zeta)[:, None]
    m = np.asarray(m, dtype=float)[None, :]
    shift = w * (m + t) / m                      # e^-eta, below 1 where the bound is finite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_bound = (m * np.log(shift) + t * np.log1p(m / t) - t * np.log1p(-w * shift)
                     + (2 * t - 1) * np.log(zeta)[:, None])
        return np.where(shift < 1.0, np.exp(log_bound), np.inf)


# ---------------------------------------------------------------------------
# Psi of a polynomial weight in angular Fourier modes

# Gauss nodes per radial panel, the first angle count of each circle, and the
# cap of its doubling.
PSI_PANEL_NODES = 16
PSI_ANGLES = 512
PSI_MAX_ANGLES = 8192
# The estimated angular error each centre's Psi may keep, relative to the mean
# of Psi over its circle |a| = const; and the sum of the trailing modes of a
# panel that may be dropped, relative to the panel's mean term, well above the
# round-off of an FFT of circle values, about 1e-17 a mode.
PSI_TAIL_TOL = 1e-10
PSI_MODE_CUT = 1e-12
# A panel beside a zero of u is narrowed until Gauss's error on its
# |z - z0|^p singularity, about (width/n^2)^(p+2), is below this.
_KINK_TOL = 1e-14

# 8 MB of circle modes hold most circles a Psi grid refines to thousands of angles.
_CIRCLE_MODES = _BoundedCache(2**23)


@lru_cache(maxsize=64)
def _gauss_jacobi(n, exponent):
    """Nodes and weights of the n-point Gauss rule for (1+x)^exponent on [-1, 1]."""
    return roots_jacobi(n, 0.0, exponent)


def _weight_zeros(coeffs):
    """(k, kinks): the order k of the zero of u at 0, and 1 - |z0|^2 for its other zeros inside.

    A zero with |z0|^2 < 2^-52 counts as one at 0: |u|^p differs from its
    value with the zero at 0 only on |z|^2 of the order of |z0|^2, whose share
    of any panel is below rounding.
    """
    order = next(i for i, c in enumerate(coeffs) if c != 0 or i == len(coeffs) - 1)
    rest = np.asarray(coeffs[order:], dtype=complex)
    roots = np.roots(rest[::-1]) if len(rest) > 1 else np.zeros(0, dtype=complex)
    tiny = modulus(roots) ** 2 < 2.0**-52
    inside = roots[~tiny & (np.abs(roots) < 1.0)]
    return order + int(np.sum(tiny)), tuple(sorted(set(one_minus_modulus_sq(inside).tolist())))


def _radial_panels(y, kinks, p, beta, origin):
    """Gauss panels for int_0^1 (1-s)^beta F(s) ds, graded in sigma = 1 - s.

    Breakpoints: the dyadic sigma = 2^-k down to the first at or below both
    y = 1 - |a|^2, where the kernel power peaks, and the least kink, so that no
    panel but the first is wider than its distance to sigma^beta's singularity;
    the dyadic s = 2^-k down to the least kink in s, since |u|^p grows like
    |z|^p from a zero near 0 and like s^(origin), origin = k p/2, from a zero
    of order k at 0; each kink 1 - |z0|^2, with its two neighbouring intervals
    halved toward it until the panel next to it is narrow enough (_KINK_TOL). The
    first panel [0, sigma_1] takes Gauss-Jacobi for sigma^beta, and with
    origin > 0 the last, in s, takes Gauss-Jacobi for s^origin. Returns
    (key, sigma, s, weights) per panel; ``key`` names the nodes for the cache
    of circle modes.
    """
    def levels(least):            # the k with 2^-k <= least < 2^(1-k), at least 1
        return max(1, 1 - int(np.frexp(least)[1]))

    dyadic = {2.0**-k for k in range(1, levels(min([y, *(k for k in kinks if k > 0)])) + 1)}
    least = min([0.5, *(1.0 - k for k in kinks if k < 1.0)])
    dyadic.update(1.0 - 2.0**-k for k in range(1, levels(least) + 1))
    # A dyadic point within a quarter of its distance to the nearer end of a
    # kink would make a narrow panel all of whose circles pass near the zero;
    # 1/2 stays, where the nodes switch from sigma to s.
    kept = [d for d in dyadic if all(abs(d - k) >= min(d, 1.0 - d) / 4.0 for k in kinks)]
    base = sorted({0.0, 0.5, 1.0, *kinks, *kept})
    points = set(base)
    width = PSI_PANEL_NODES**2 * _KINK_TOL ** (1.0 / (p + 2.0))
    for left, right in zip(base[:-1], base[1:]):
        gap = right - left
        halvings = np.arange(1, max(0, int(np.ceil(np.log2(gap / width)))) + 1)
        if left in kinks:
            points.update(left + gap * 2.0 ** -halvings)
        if right in kinks:
            points.update(right - gap * 2.0 ** -halvings)
    points = sorted(points)
    panels = []
    for i, (left, right) in enumerate(zip(points[:-1], points[1:])):
        if i == 0:
            x, w = _gauss_jacobi(PSI_PANEL_NODES, beta)
            sigma = right * (x + 1.0) / 2.0
            s, weights, exponent = 1.0 - sigma, w * (right / 2.0) ** (beta + 1.0), beta
        elif right == 1.0 and origin > 0:
            x, w = _gauss_jacobi(PSI_PANEL_NODES, origin)
            s = (1.0 - left) * (x + 1.0) / 2.0
            sigma = 1.0 - s
            weights = w * ((1.0 - left) / 2.0) ** (origin + 1.0) * sigma**beta / s**origin
            exponent = origin
        else:
            x, w = _gauss_jacobi(PSI_PANEL_NODES, 0.0)
            if left >= 0.5:       # s = 1 - sigma is then exact, and accurate near s = 0
                s = (1.0 - right) + (right - left) * (1.0 - x) / 2.0
                sigma = 1.0 - s
            else:
                sigma = left + (right - left) * (x + 1.0) / 2.0
                s = 1.0 - sigma
            weights, exponent = w * (right - left) / 2.0 * sigma**beta, 0.0
        panels.append(((left, right, exponent, PSI_PANEL_NODES), sigma, s, weights))
    return panels


def _circle_modes(coeffs, p, key, s, n_angles):
    """[(modes, alias, decay)] of |u|^p on each circle |z|^2 = s_i, n_angles[i] points each.

    ``modes`` is the rfft over N = n_angles[i], so its m-th entry is
    (1/2 pi) int |u|^p e^(-i m theta) dtheta for m <= N/2, up to aliasing;
    ``alias`` and ``decay`` are its ``_alias_estimate``. Circles are kept in
    _CIRCLE_MODES under ``key``, their index and N, and evaluated in batches
    of at most DISK_BATCH_NODES points.
    """
    found = [_CIRCLE_MODES.get((coeffs, p, key, i, size))
             for i, size in enumerate(n_angles)]
    u = Polynomial(coeffs)
    for size in np.unique(n_angles):
        missing = [i for i in np.flatnonzero(n_angles == size) if found[i] is None]
        turns = np.exp(2j * np.pi * np.arange(size) / size)
        step = max(1, DISK_BATCH_NODES // size)
        for lo in range(0, len(missing), step):
            batch = missing[lo:lo + step]
            modes = np.fft.rfft(np.abs(u(np.sqrt(s[batch])[:, None] * turns)) ** p, axis=1) / size
            for i, row, alias, decay in zip(batch, modes, *_alias_estimate(np.abs(modes), p)):
                row = row.copy()              # a view would keep the whole batch alive
                row.setflags(write=False)
                found[i] = _CIRCLE_MODES.put((coeffs, p, key, i, size), (row, alias, decay))
    return found


def _alias_estimate(size, p):
    """The aliasing of each row of circle modes, extrapolated from the middle of its spectrum.

    The modes near N/2 fold onto their mirror images, and where a zero of u
    lies at an angle near a multiple of 2 pi/N the two cancel, so they cannot
    be trusted. With A_k the largest of the N/32 modes below N/k, the decay
    per octave r = A_4/A_8 (at most 1) extrapolates the mode at N to A_4 r^2,
    and a zero of u in the disk makes the modes fall like m^-(p+1), so the
    aliases sum to at most 2 zeta(p+1) times that. Returns (alias, r) per row.
    """
    half = size.shape[1] - 1
    window = max(1, half // 16)
    quarter = size[:, half // 2 - window:half // 2].max(axis=1)
    eighth = size[:, half // 4 - window:half // 4].max(axis=1)
    decay = np.minimum(1.0, np.divide(quarter, eighth, out=np.ones_like(quarter), where=eighth > 0))
    return 2.0 * zeta_function(p + 1.0) * quarter * decay**2, decay


def _psi_fourier(coeffs, p, beta, centers, y, t):
    """Psi of |u|^p dA_beta at each a of the 1-d ``centers``, in angular Fourier modes.

    With s = |z|^2 and sigma = 1 - s,

        Psi(a) = y^t (beta+1) int_0^1 (1-s)^beta sum_m kappa_m
                 Re[conj(g_m(s)) e^(-i m arg a)] ds,   y = 1 - |a|^2,

    m >= 1 counted twice, where g_m(s) are the angular modes of |u|^p on the
    circle |z|^2 = s (``_circle_modes``) and kappa_m those of the kernel power
    at 1 - w^2 = sigma + s y (``_kernel_modes``). The radial integral runs on
    ``_radial_panels``. Everything depends on a only through y and arg a, so
    the centres handed one y share one evaluation of the mode sums D_m, and
    each centre's value is one sum over m of D_m e^(i m arg a): a centre's
    value does not depend on the others. ``psi_sup`` and ``psi_heatmap`` hand
    every centre of a ring the same y, so each ring is one evaluation.

    Per y and per panel, the trailing modes are dropped while the sum of their
    terms |kappa_m g_m|, bounded first by ``_kernel_mode_bound`` and then
    computed, stays below PSI_MODE_CUT of the panel's mean term. Each circle
    starts at PSI_ANGLES angles; while the estimated angular error of the sum
    (each circle's aliasing, ``_alias_estimate``, times the sum of the kernel
    modes it meets) exceeds PSI_TAIL_TOL of the mean of Psi over the circle
    |a|^2 = 1 - y, the circles with the largest shares are refined, by as many
    doublings as their spectra's decay says they need, up to PSI_MAX_ANGLES;
    past that cap EvaluationError names the tail and the zero of u nearest
    the circle.

    Validated depth: 1 - |a| from 2^-1 to 2^-40, on and off the real axis. At
    p in {2, 4}, against ``_psi_squared``, within 1e-12 of the largest value
    on the circle, beta = -0.875 and u(0) = 0 included. At odd and non-integer
    p, within 1e-10 of the same with twice the panel nodes and twice the first
    angle count (within 3.1e-11 on the 20 multiplication criteria of the
    cold-mix benchmark at seeds 1-10). Past 2^-40 it stays finite to the last
    grid level, 1 - |a| = 2^-53.
    """
    order, kinks = _weight_zeros(coeffs)
    origin = order * p / 2.0
    # numpy's vector loops round arctan2 and exp differently from its strided
    # ones; on contiguous input a value does not depend on its place.
    centers = np.ascontiguousarray(centers)
    directions = np.angle(centers)
    out = np.empty(len(centers))
    for y_value in np.unique(y):
        at = np.flatnonzero(y == y_value)
        modes = _mode_sums(coeffs, p, beta, t, y_value, kinks, origin)
        m = np.arange(len(modes))
        weights = np.where(m == 0, 1.0, 2.0)
        out[at] = np.sum(weights * (modes * np.exp(1j * m * directions[at, None])).real, axis=1)
    return out


def _mode_sums(coeffs, p, beta, t, y, kinks, origin):
    """D_m = y^t (beta+1) int (1-s)^beta kappa_m g_m ds for one y, refined as
    ``_psi_fourier`` says."""
    n = PSI_PANEL_NODES
    panels = _radial_panels(y, kinks, p, beta, origin)
    sigma = np.concatenate([panel[1] for panel in panels])
    s = np.concatenate([panel[2] for panel in panels])
    zeta = sigma + s * y
    factor = (beta + 1.0) * np.concatenate([panel[3] for panel in panels]) \
        * np.exp(t * np.log(y) + (1.0 - 2.0 * t) * np.log(zeta))
    mean_mode = _kernel_modes(t, zeta, 0)[:, 0]
    nearest = zeta.reshape(-1, n).min(axis=1)       # the largest kappa_m of each panel
    angles = np.full(len(zeta), PSI_ANGLES)
    decay = np.ones(len(zeta))
    done = {}
    while True:
        stale = [i for i in range(len(panels))
                 if i not in done or done[i][0] != tuple(angles[i * n:(i + 1) * n])]
        widest = {i: int(angles[i * n:(i + 1) * n].max()) for i in stale}
        for size in sorted(set(widest.values())):
            todo = [i for i in stale if widest[i] == size]
            step = max(1, DISK_BATCH_NODES // (n * (size // 2 + 1)))
            for lo in range(0, len(todo), step):
                batch = np.array(todo[lo:lo + step])
                rows = (batch[:, None] * n + np.arange(n)).ravel()
                modes = np.zeros((len(rows), size // 2 + 1), dtype=complex)
                alias = np.empty(len(rows))
                for j, i in enumerate(batch):
                    part = slice(i * n, (i + 1) * n)
                    circles = _circle_modes(coeffs, p, panels[i][0], panels[i][2], angles[part])
                    for count in np.unique(angles[part]):
                        picked = np.flatnonzero(angles[part] == count)
                        modes[j * n + picked, :count // 2 + 1] = [circles[k][0] for k in picked]
                    alias[j * n:(j + 1) * n] = [circle[1] for circle in circles]
                    decay[part] = [circle[2] for circle in circles]
                results = _panel_sums(t, zeta[rows], factor[rows], mean_mode[rows], nearest[batch],
                                      modes, alias)
                for i, result in zip(batch, results):
                    done[i] = (tuple(angles[i * n:(i + 1) * n]),) + result
        mean = sum(done[i][2] for i in done)
        tails = np.concatenate([done[i][3] for i in range(len(panels))])
        if tails.sum() <= PSI_TAIL_TOL * mean:
            break
        share = PSI_TAIL_TOL * mean / len(tails)
        refine = (tails >= min(share, tails.max())) & (angles < PSI_MAX_ANGLES)
        if not np.any(refine):
            roots = np.roots(np.asarray(coeffs, dtype=complex)[::-1])
            z0 = roots[np.argmin(np.abs(1.0 - np.abs(roots)))]  # a constant u never aliases
            raise EvaluationError(
                f"Psi of |u|^{p} dA_{beta} at 1-|a|^2 = {y:.6g}: its angular tail is "
                f"{tails.sum() / mean:.1e} of the circle mean at {PSI_MAX_ANGLES} angles, "
                f"above {PSI_TAIL_TOL:g}; the zero of u nearest the circle is z0 = {z0:.6g}, "
                f"with |z0| = {abs(z0):.6g} and 1 - |z0| = {1.0 - abs(z0):.3g}")
        # Each doubling cuts a row's aliasing by about its decay per octave.
        with np.errstate(divide="ignore"):
            doublings = np.ceil(np.log(tails[refine] / share)
                                / -np.log(np.minimum(decay[refine], 0.5)))
        angles[refine] = np.minimum(angles[refine] << np.clip(doublings, 1, 4).astype(int),
                                    PSI_MAX_ANGLES)
    sums = np.zeros(max(len(done[i][1]) for i in done), dtype=complex)
    for i in done:
        sums[:len(done[i][1])] += done[i][1]
    return sums


def _panel_sums(t, zeta, factor, mean_mode, nearest, modes, alias):
    """[(D_m, mean term, tails)] of each panel in a batch of panels of PSI_PANEL_NODES rows.

    ``factor`` carries y^t (beta+1) zeta^(1-2t) times the radial weight, so
    factor times a scaled kernel mode times a circle mode is a term of D_m. A
    circle with fewer modes than ``modes`` holds is padded with zeros, which its
    ``alias`` covers. ``tails`` has one entry per row: its aliasing times the
    sum of the kernel modes it is taken against, m >= 1 counted twice, which
    is the error where arg a points at the zero that causes the aliasing.
    """
    n = PSI_PANEL_NODES
    starts = np.arange(0, len(zeta), n)
    size = np.abs(modes)
    mean = np.add.reduceat(factor * mean_mode * size[:, 0], starts)
    m = np.arange(1, size.shape[1])
    # kappa_m is largest at the least zeta of a panel; rescale that bound to each row.
    scale = (zeta / np.repeat(nearest, n)) ** (2 * t - 1)
    bound = np.repeat(_kernel_mode_bound(t, nearest, m), n, axis=0) * scale[:, None]
    bound = np.minimum(mean_mode[:, None], bound)
    bounded = np.add.reduceat(factor[:, None] * bound * size[:, 1:], starts, axis=0)
    beyond = np.cumsum(bounded[:, ::-1], axis=1)[:, ::-1]    # beyond[:, j]: the terms past m = j
    caps = [int(np.argmax(np.append(row, 0.0) <= PSI_MODE_CUT * base))
            for row, base in zip(beyond, mean)]
    # Each power-of-two class of caps takes the kernel modes up to its largest.
    kernel = np.zeros((len(zeta), max(caps) + 1))
    classes = np.repeat([_mode_width(cap) for cap in caps], n)
    for width in np.unique(classes):
        rows = np.flatnonzero(classes == width)
        cap = max(c for c in caps if _mode_width(c) == width)
        kernel[rows, :cap + 1] = _kernel_modes(t, zeta[rows], cap)
    terms = np.add.reduceat(factor[:, None] * kernel * size[:, :kernel.shape[1]], starts, axis=0)
    rest = np.append(beyond, np.zeros((len(mean), 1)), axis=1)[:, kernel.shape[1] - 1]
    beyond = np.cumsum(terms[:, :0:-1], axis=1)[:, ::-1] + rest[:, None]
    cuts = [int(np.argmax(np.append(row, r) <= PSI_MODE_CUT * base))
            for row, r, base in zip(beyond, rest, mean)]
    kernel[np.arange(kernel.shape[1]) > np.repeat(cuts, n)[:, None]] = 0.0
    sums = np.add.reduceat(factor[:, None] * kernel * modes[:, :kernel.shape[1]], starts, axis=0)
    tails = factor * alias * (2.0 * kernel.sum(axis=1) - kernel[:, 0])
    return [(row[:cut + 1], base, tails[k * n:(k + 1) * n])
            for k, (row, cut, base) in enumerate(zip(sums, cuts, mean))]


@dataclass(frozen=True)
class RadialDensity(Measure):
    """scale * (1 - |z|^2)^gamma dA; total mass scale/(gamma+1)."""

    gamma: float
    scale: float = 1.0
    moment_sums = True

    def __post_init__(self):
        if not self.gamma > -1:
            raise ConfigurationError(f"gamma must exceed -1, got {self.gamma}")
        if not 0 <= self.scale < np.inf:
            raise ConfigurationError(f"scale must be finite and nonnegative, got {self.scale}")

    def integrate(self, g, quad=DEFAULT_QUAD):
        out = _rule(self.gamma, quad).integrate(g)
        return out * (self.scale / (self.gamma + 1.0))

    def density(self, z):
        return self.scale * (1.0 - np.abs(z) ** 2) ** self.gamma

    def _disk_masses(self, centers, y, r):
        """scale y^(gamma+2) ``_disk_series`` of v = 1, once per distinct exact y:
        the density is radial, so D(a, r) and D(|a|, r) carry one mass."""
        levels, where = np.unique(y, return_inverse=True)
        series = _disk_series(np.ones((len(levels), 1)), self.gamma, levels, r)
        return (self.scale * levels ** (self.gamma + 2.0) * series)[where]

    def _psi(self, centers, y, t):
        """The case v = 1 of ``_psi_squared``, times the mass scale/(gamma+1)."""
        mass = self.scale / (self.gamma + 1.0)
        return mass * _psi_squared(np.ones(1), self.gamma, centers, y, t)

    def boundary_exponent(self, t):
        """gamma + 2 - t, the power of 1 - |a|^2 in ``_psi`` where it is negative."""
        return _exponent(self.gamma, t) if self.scale > 0 else np.inf

    def _square_integrals(self, coeffs, quad):
        """sum_n |c_n|^2 scale B(n+1, gamma+1): the monomials are orthogonal and
        int |z|^(2n) (1-|z|^2)^gamma dA = B(n+1, gamma+1)."""
        n = np.arange(coeffs.shape[1])
        return np.abs(coeffs) ** 2 @ (self.scale * beta_function(n + 1.0, self.gamma + 1.0))

    def scaled(self, c):
        return RadialDensity(self.gamma, c * self.scale)

    def spec(self):
        return {"type": "radial", "gamma": self.gamma, "scale": self.scale}


class WeightedArea(RadialDensity):
    """The reference probability measure dA_alpha, the RadialDensity(alpha, alpha + 1)."""

    def __init__(self, alpha):
        if not alpha > -1:
            raise ConfigurationError(f"alpha must exceed -1, got {alpha}")
        super().__init__(alpha, alpha + 1.0)

    @property
    def alpha(self):
        return self.gamma

    def spec(self):
        return {"type": "area", "alpha": self.alpha}


# |u|^p on the rule of one polynomial weight: 1 MB at the default 256 x 512
# nodes and 4 MB doubled, so the cache pins at most 4 MB at default sizes and
# 16 MB at doubled ones. Counted per pass of the benchmark workloads: the
# suites read none; cold-mix at seed 7 computes two, one per Blaschke operator,
# and reads each nine times (one miss, eight hits).
@lru_cache(maxsize=4)
def _weight_on_rule(mu, quad):
    """|u|^p at the nodes of the dA_beta rule of the polynomial weight ``mu``."""
    rule = _rule(mu.beta, quad)
    values = np.abs(mu.u(rule.nodes)) ** mu.p
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class PolyWeighted(Measure):
    """|u(z)|^p dA_beta for a polynomial symbol u."""

    u: Polynomial
    p: float
    beta: float

    def __post_init__(self):
        if not self.p > 0:
            raise ConfigurationError(f"p must be positive, got {self.p}")
        if not self.beta > -1:
            raise ConfigurationError(f"beta must exceed -1, got {self.beta}")
        if not np.all(np.isfinite(self.u.coeffs)):
            raise ConfigurationError(f"symbol coefficients must be finite, got {self.u.coeffs}")

    def integrate(self, g, quad=DEFAULT_QUAD):
        rule = _rule(self.beta, quad)
        vals = g(rule.nodes) if callable(g) else g
        return _weighted_sum(rule.weights, vals, rule.nodes, _weight_on_rule(self, quad))

    def density(self, z):
        return np.abs(self.u(z)) ** self.p * (self.beta + 1.0) * (1.0 - np.abs(z) ** 2) ** self.beta

    def _disk_masses(self, centers, y, r):
        """(beta+1) y^(beta+2) times m ``_disk_series`` where |u|^p = m |v|^2
        (``_as_square``), else times ``_disk_rule``. At even p, u is pulled back
        before it is raised to p/2, so a zero of u near a keeps its digits."""
        square = self._as_square()
        if square is None:
            pulled = _disk_rule(self.u.coeffs, self.p, self.beta, centers, y, r)
        else:
            v, mass = square
            base, k = (self.u.coeffs, int(self.p) // 2) if self.p % 2 == 0 else (v, 1)
            rows = poly_power(_pulled_back(base, centers, y), k)
            pulled = mass * _disk_series(rows, self.beta, y, r)
        return (self.beta + 1.0) * y ** (self.beta + 2.0) * pulled

    @property
    def moment_sums(self):
        """Exactly where |u|^p = m |v|^2 (``_as_square``)."""
        return self._as_square() is not None

    def _as_square(self):
        """(v, m) with |u|^p = m |v|^2: (u^(p/2), 1) at even p, (1, |u_0|^p) for constant u."""
        if self.p % 2 == 0:
            return poly_power(self.u.coeffs, int(self.p) // 2), 1.0
        if self.u.is_constant:
            return np.ones(1), abs(self.u.coeffs[0]) ** self.p
        return None

    def _psi(self, centers, y, t):
        """m ``_psi_squared`` of v where |u|^p = m |v|^2 (``_as_square``), else
        ``_psi_fourier``."""
        square = self._as_square()
        if square is None:
            return _psi_fourier(self.u.coeffs, self.p, self.beta, centers, y, t)
        v, mass = square
        return mass * _psi_squared(v, self.beta, centers, y, t)

    def boundary_exponent(self, t):
        """beta + 2 - t, that of dA_beta: |u|^p is bounded, and near every
        boundary point but the finitely many zeros of u it is bounded below."""
        return np.inf if self.u.is_zero else _exponent(self.beta, t)

    def _square_integrals(self, coeffs, quad):
        """Exact where |u|^p |f|^2 = m |v f|^2 (``_as_square``) and dA_beta has
        the moments of ``RadialDensity``; otherwise each row on the rule."""
        square = self._as_square()
        if square is not None:
            v, mass = square
            return mass * WeightedArea(self.beta)._square_integrals(poly_multiply(coeffs, v), quad)
        polys = [Polynomial(tuple(row)) for row in coeffs]
        return np.array([self.integrate(lambda z, f=f: np.abs(f(z)) ** 2, quad) for f in polys])

    def scaled(self, c):
        if c < 0:
            raise ConfigurationError("measures scale by nonnegative factors only")
        return PolyWeighted(self.u * (c ** (1.0 / self.p)), self.p, self.beta)

    def spec(self):
        return {"type": "polyweighted", "u": self.u.to_pairs(), "p": self.p, "beta": self.beta}


@dataclass(frozen=True, eq=False)
class Atomic(Measure):
    """Finite sum of point masses; all integrals are exact finite sums."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        """Atoms lie in the disk with finite, nonnegative masses, one per point."""
        if np.size(self.points) == 0:
            raise ConfigurationError("an atomic measure needs at least one atom")
        if np.shape(self.points) != np.shape(self.masses):
            raise ConfigurationError(f"need one mass per atom, got points of shape "
                                     f"{np.shape(self.points)} and masses of shape "
                                     f"{np.shape(self.masses)}")
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.masses))):
            raise ConfigurationError("atom points and masses must be finite")
        if not np.all(self.masses >= 0):
            raise ConfigurationError("atom masses must be nonnegative")
        try:
            as_disk_point(self.points)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc

    @classmethod
    def from_atoms(cls, atoms):
        """atoms: iterable of (point, mass), each mass positive."""
        pts = np.array([p for p, _ in atoms], dtype=complex)
        ms = np.array([m for _, m in atoms], dtype=float)
        if not np.all(ms > 0):
            raise ConfigurationError("atom masses must be positive")
        pts.setflags(write=False)
        ms.setflags(write=False)
        return cls(points=pts, masses=ms)

    def integrate(self, g, quad=DEFAULT_QUAD):
        return _weighted_sum(self.masses, g(self.points) if callable(g) else g, self.points)

    def _disk_masses(self, centers, y, r):
        points, masses = self.points.ravel(), self.masses.ravel()
        s = np.tanh(r)
        step = max(1, DISK_BATCH_NODES // points.size)
        out = np.empty(len(centers))
        for lo in range(0, len(centers), step):
            inside = pseudo_distance(centers[lo:lo + step, None], points) < s
            out[lo:lo + step] = np.sum(np.broadcast_to(masses, inside.shape), axis=1,
                                       where=inside)
        return out

    def _psi(self, centers, y, t):
        """The finite sum over the atoms of their kernel powers, with the given
        y = 1 - |a|^2: one atom at 0.5 is within 5e-16 relative of 40-digit
        mpmath from 1 - |a| = 2^-10 to 2^-40, the validated depth."""
        points, masses = self.points.ravel(), self.masses.ravel()
        step = max(1, DISK_BATCH_NODES // points.size)
        out = np.empty(len(centers))
        for lo in range(0, len(centers), step):
            powers = kernel_power_modulus(centers[lo:lo + step, None], points, t,
                                          y[lo:lo + step, None])
            out[lo:lo + step] = np.sum(masses * powers, axis=1)
        return out

    def boundary_exponent(self, t):
        """+inf: the kernel power at an atom z is at most (1-|z|^2)^-t."""
        return np.inf

    def _square_integrals(self, coeffs, quad):
        """sum_i m_i |f(z_i)|^2, by Horner's rule on chunks of atoms x polynomials."""
        points, masses = self.points.ravel(), self.masses.ravel()
        step = max(1, DISK_BATCH_NODES // len(coeffs))
        out = np.zeros(len(coeffs))
        for lo in range(0, points.size, step):
            z = points[lo:lo + step]
            vals = np.repeat(coeffs[:, -1:], z.size, axis=1)
            for c in coeffs[:, -2::-1].T:
                vals *= z
                vals += c[:, None]
            out += np.abs(vals) ** 2 @ masses[lo:lo + step]
        return out

    def scaled(self, c):
        return Atomic(points=self.points, masses=c * self.masses)

    def spec(self):
        return {
            "type": "atomic",
            "atoms": [
                {"re": p.real, "im": p.imag, "mass": float(m)}
                for p, m in zip(self.points, self.masses)
            ],
        }


@dataclass(frozen=True)
class SumMeasure(Measure):
    """Finite sum of component measures."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ConfigurationError("sum measure needs at least one part")

    def integrate(self, g, quad=DEFAULT_QUAD):
        return sum(part.integrate(g, quad) for part in self.parts)

    def _disk_masses(self, centers, y, r):
        return sum(part._disk_masses(centers, y, r) for part in self.parts)

    def _psi(self, centers, y, t):
        return sum(part._psi(centers, y, t) for part in self.parts)

    def boundary_exponent(self, t):
        return min(part.boundary_exponent(t) for part in self.parts)

    @property
    def moment_sums(self):
        return all(part.moment_sums for part in self.parts)

    def _square_integrals(self, coeffs, quad):
        return sum(part._square_integrals(coeffs, quad) for part in self.parts)

    def scaled(self, c):
        return SumMeasure(tuple(part.scaled(c) for part in self.parts))

    def spec(self):
        return {"type": "sum", "parts": [part.spec() for part in self.parts]}


@dataclass(frozen=True, eq=False)
class GridDensity(Atomic):
    """Nonnegative density sampled on a rule's own nodes (no interpolation).

    The represented measure is the Atomic one with mass weight*value at each
    node, so integration against it is exact by construction.
    """

    rule: QuadratureRule
    values: np.ndarray

    @classmethod
    def from_values(cls, rule, values):
        vals = np.asarray(values, dtype=float).reshape(rule.nodes.shape)
        if not np.all(vals >= 0):
            raise ConfigurationError("grid density values must be nonnegative")
        vals = vals.copy()
        masses = rule.weights * vals
        vals.setflags(write=False)
        masses.setflags(write=False)
        return cls(points=rule.nodes, masses=masses, rule=rule, values=vals)

    @classmethod
    def from_function(cls, rule, fn):
        return cls.from_values(rule, np.asarray(fn(rule.nodes), dtype=float))

    def scaled(self, c):
        return GridDensity.from_values(self.rule, c * self.values)

    def spec(self):
        return {
            "type": "grid",
            "alpha": self.rule.alpha,
            "n_radial": self.rule.n_radial,
            "n_angular": self.rule.n_angular,
            "values": [float(v) for v in self.values.ravel()],
        }


# ---------------------------------------------------------------------------
# top-level operations


def integrate(mu: Measure, g, quad: QuadConfig = DEFAULT_QUAD):
    """Integral of ``g`` against ``mu``; linear in both arguments."""
    return mu.integrate(g, quad)


def measure_of_disk(mu: Measure, a, r, y=None):
    """mu(D(a, r)) for the metric disk; monotone in r.

    ``a`` is a centre or an array of centres; see ``Measure.disk_measure``.
    """
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    return mu.disk_measure(a, r, y)


def bergman_norm(f, params: SpaceParams, quad: QuadConfig = DEFAULT_QUAD):
    """Norm of ``f`` in the (p, alpha) space: (int |f|^p dA_alpha)^(1/p)."""
    rule = _rule(params.alpha, quad)
    vals = np.abs(f(rule.nodes)) ** params.p
    _check_finite(vals, rule.nodes)
    return float(np.sum(rule.weights * vals) ** (1.0 / params.p))


# ---------------------------------------------------------------------------
# wire format


# Each measure type's constructor, called with the fields of its validated spec;
# "sum" builds its parts with ``build_measure``.
_MEASURES = {
    "area": WeightedArea,
    "radial": RadialDensity,
    "polyweighted": lambda u, p, beta: PolyWeighted(Polynomial.from_pairs(u), p, beta),
    "atomic": lambda atoms: Atomic.from_atoms(
        [(complex(atom["re"], atom["im"]), atom["mass"]) for atom in atoms]),
    "grid": lambda alpha, n_radial, n_angular, values: GridDensity.from_values(
        build_quadrature(alpha, n_radial, n_angular), values),
}


def build_measure(spec, pointer="/measure"):
    """The Measure of a spec already validated against ``definitions/measure``.

    What the schema cannot state is checked here: a grid needs n_radial *
    n_angular values (the error points at ``<pointer>/values``), and the
    constructors' checks, such as atoms inside the disk, point at ``pointer``.
    Parts of a sum are pointed at by their index.
    """
    fields = dict(spec)
    kind = fields.pop("type")
    if kind == "sum":
        return SumMeasure(tuple(build_measure(part, f"{pointer}/parts/{i}")
                                for i, part in enumerate(fields["parts"])))
    if kind == "grid":
        count = fields["n_radial"] * fields["n_angular"]
        if len(fields["values"]) != count:
            raise ConfigurationError(
                f"need n_radial * n_angular = {count} values, got {len(fields['values'])}",
                f"{pointer}/values")
    try:
        return _MEASURES[kind](**fields)
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"invalid measure spec: {exc}", pointer) from exc


def measure_from_config(cfg, pointer="/measure"):
    """Parse the measure wire format into a Measure.

    ``cfg`` is checked against ``definitions/measure`` of the package schema
    file, which lists the variants ("area", "radial", "polyweighted",
    "atomic", "sum", "grid") and their fields and bounds, and then built by
    ``build_measure``; errors carry a JSON pointer to the offending field.
    Absent optional fields take the constructor defaults.
    """
    return build_measure(validate(cfg, "definitions/measure", pointer), pointer)
