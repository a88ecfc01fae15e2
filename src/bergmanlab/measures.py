"""Finite positive Borel measures on the disk and quadrature against them.

The reference weight is the probability measure

    dA_alpha(z) = (alpha + 1) (1 - |z|^2)^alpha dA(z),   alpha > -1,

with dA the normalized area measure. Integration uses a tensor rule that is
Gauss-Jacobi in the radial direction, with the boundary factor (1 - rho^2)^alpha
absorbed analytically into the Jacobi weight, and uniform (trapezoidal) in
angle. The radial substitution t = rho^2 gives

    int_D f dA_alpha = (alpha+1)/(2 pi) int_0^{2pi} int_0^1 f(sqrt(t) e^{i th}) (1-t)^alpha dt dth,

so a Jacobi rule with weight (1-x)^alpha on [-1, 1] integrates the radial
factor exactly for polynomial data, up to rounding. Its nodes are the
eigenvalues of the Jacobi matrix (numpy's eigvalsh), refined by one Newton
step, and its weights the Christoffel numbers scaled to the exact mass
(``_jacobi_rule``, Golub-Welsch): for alpha from -0.95 to 5 and k <= 200,
the moments of |z|^(2k) are within 6.1e-13 relative with 256 nodes and
1.0e-12 with 512. The rule stores its weights as one column per radius,
broadcast across the angles.

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
  constant u); its 2F1 terms are summed once per distinct (|a|^2, y), so
  each ring of a grid is one evaluation, and only Re[v_j conj(v_k) a^d] is
  formed per centre; exact to about 1e-13 from 1 - |a| = 2^-1 to 2^-40;
- Fourier modes: the other polynomial weights, as a radial integral of the
  angular Fourier modes of |u|^p against those of the kernel power
  (``_psi_fourier``), both in closed form from ``_kernel_modes``, which takes
  any real t != 0: t for the kernel, -p/2 for each factor |z - z0|^p of |u|^p,
  whose modes convolve to those of |u|^p; u is never evaluated. Within 1e-12
  of the finite sum at even p and 1e-10 of its own refinement at other p,
  from 2^-1 to 2^-40; refused with EvaluationError where a circle would need
  more than PSI_MAX_MODES modes, near a zero of u within a few thousandths
  of the unit circle;
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
- atoms: the masses of the atoms inside each disk, exact; each batch of
  centres tests only the atoms of its band of |z| (``Atomic._disk_masses``).

Each measure also states the exponent e for which sup_a psi(a, t) is finite
exactly when e >= 0 (``boundary_exponent``): gamma + 2 - t for radial
densities, beta + 2 - t for polynomial weights, +inf for atoms and for the
zero measure, and the minimum over the parts for sums. It is formed in
rational arithmetic from the decimals the floats print as (``as_fraction``)
and rounded once, so its sign is exact: dA_alpha at t = 2 + alpha gives 0.

Each measure also integrates |f|^2 for a stack of polynomials f = g(z^n),
one row of ascending coefficients of g each, with the stride n as an
argument (``square_integrals``; n = 1 for plain rows, and the compact form
of E f under z^n otherwise), in one routine per measure type: as
sum_m |g_m|^2 times the moments scale * B(nm+1, gamma+1) for radial
densities; for polynomial weights with |u|^p = m |v|^2 as m times the moment
sums of v(z) g(z^n), pairing only coefficients of v whose degrees agree
mod n, without forming v f (``_moment_squares``; on the rule otherwise); by
Horner's rule in w at the points z_i^n for atoms; and as the sum over the
parts for sums. Each measure says whether that is a sum of moments, whose
cost does not grow with a node or atom count (``moment_sums``): radial
densities, polynomial weights with |u|^p = m |v|^2, and sums of only those.
``poly_multiply`` and ``poly_power`` give the coefficients of products and
powers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np
from scipy.special import betainc, binom, gammaln, hyp2f1, poch, xlog1py, xlogy
from scipy.special import gamma as gamma_function
from scipy.special import beta as beta_function

from .config import validate
from .errors import ConfigurationError, EvaluationError
from .geometry import SpaceParams, as_disk_point, kernel_power_modulus, modulus, \
    one_minus_modulus_sq, pseudo_distance

DEFAULT_N_RADIAL = 256
DEFAULT_N_ANGULAR = 512
# The config schema's maxima, four times the defaults: 32 MiB of nodes.
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
    weights: np.ndarray        # (n_radial, n_angular) positive, sums to 1; a broadcast column
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


# A rule at the default 256 x 512 nodes holds 2 MiB of nodes and a doubled one
# 8 MiB; its weights are one column, broadcast. So the cache pins at most 16 MiB
# at default sizes and 64 MiB at doubled ones. Counted per pass of the benchmark
# workloads: the carleson and operator suites build no rule; cold-mix at seed 7
# builds two 128 x 256 rules, one per Blaschke operator, and reads each ten
# times (one miss, nine hits).
@lru_cache(maxsize=8)
def build_quadrature(alpha, n_radial=DEFAULT_N_RADIAL, n_angular=DEFAULT_N_ANGULAR):
    """Build (and cache) the tensor rule for dA_alpha."""
    if not alpha > -1:
        raise ConfigurationError(f"alpha must exceed -1, got {alpha}")
    if n_radial < 4 or n_angular < 4:
        raise ConfigurationError(
            f"node counts must be at least 4, got ({n_radial}, {n_angular})"
        )
    x, w = _jacobi_rule(n_radial, alpha, 0.0)
    t = (x + 1.0) / 2.0
    v = w * 2.0 ** (-(1.0 + alpha))
    # Node [i, j] is rho_i exp(2 pi i j / n_angular), angles from 0.
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    nodes = np.outer(np.sqrt(t), np.exp(1j * theta))
    weights = np.broadcast_to(((alpha + 1.0) * v / n_angular)[:, None], nodes.shape)
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


def _jacobi_rule(n, a, b):
    """Nodes, ascending, and weights of the n-point Gauss rule for (1-x)^a (1+x)^b on [-1, 1].

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix, each refined by one Newton step on
    p_n through the three-term recurrence of the orthonormal polynomials p_k;
    the weights are the Christoffel numbers 1 / sum_{k<n} p_k(x)^2, scaled to
    the exact mass 2^(a+b+1) B(a+1, b+1).
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + a + b
    diag = np.concatenate(([(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))))
    k = np.arange(2.0, n + 1.0)
    s = 2.0 * k + a + b
    # off[j] couples p_j and p_(j+1); its first entry is cancelled by hand, since
    # the general form is 0/0 at a + b = -1, and off[n-1] closes the recurrence.
    off = np.sqrt(np.concatenate((
        [4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))],
        4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))))
    lower = np.concatenate(([0.0], off[:-1]))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], -1))

    # p_n and p_n' by the recurrence, with p_0 = 1: every p_k is then off by the
    # one factor sqrt(mass), which the Newton step ignores and the scaling removes.
    prev, cur, dprev, dcur = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
    for j in range(n):
        shifted = x - diag[j]
        prev, cur, dprev, dcur = (cur, (shifted * cur - lower[j] * prev) / off[j],
                                  dcur, (shifted * dcur + cur - lower[j] * dprev) / off[j])
    x = x - cur / dcur
    prev, cur, total = np.zeros(n), np.ones(n), np.ones(n)
    for j in range(n - 1):
        prev, cur = cur, ((x - diag[j]) * cur - lower[j] * prev) / off[j]
        total += cur * cur
    w = 1.0 / total
    return x, w * (2.0 ** (a + b + 1.0) * beta_function(a + 1.0, b + 1.0) / np.sum(w))


def _rule(alpha, quad: QuadConfig):
    return build_quadrature(float(alpha), quad.n_radial, quad.n_angular)


@lru_cache(maxsize=128)
def _euclid_disk_base(n_radial, n_angular):
    """Gauss-Legendre polar rule on the unit disk against normalized area."""
    x, w = _jacobi_rule(n_radial, 0.0, 0.0)
    t = (x + 1.0) / 2.0
    base = np.outer(np.sqrt(t), np.exp(2j * np.pi * np.arange(n_angular) / n_angular))
    return base, np.broadcast_to((w / 2.0 / n_angular)[:, None], base.shape)


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


def _moment_squares(coeffs, v, moments, stride):
    """sum_d mu_d |c_d|^2 for each row g of ``coeffs``, where c = v(z) g(z^stride)
    and mu_d = ``moments(d)`` on an integer array of degrees d, without forming c.

    v_j g_(m') and v_l g_m meet at one degree only where j + n m' = l + n m,
    n = stride, so only coefficients of v whose degrees agree mod n pair up:
    with l = j + n t, the sum is

        sum_j |v_j|^2 sum_m mu_(nm+j) |g_m|^2
          + 2 Re sum_(t >= 1) sum_j v_j conj(v_l) sum_m mu_(n(m+t)+j) g_(m+t) conj(g_m).

    Each shift t is one product row of g with itself and one product with a
    weight row; t = 0 reads |g|^2, exactly as a radial density (v = 1) does.
    """
    width = coeffs.shape[1]
    j = np.flatnonzero(v)           # the degrees of v's nonzero coefficients
    v = v[j]
    mu = moments(stride * np.arange(width)[:, None] + j)
    out = np.abs(coeffs) ** 2 @ (mu @ np.abs(v) ** 2)
    weights = {}                    # shift t -> sum over its pairs of v_j conj(v_l) mu_(n(m+t)+j)
    for lower, upper in combinations(range(len(j)), 2):
        t, rest = divmod(j[upper] - j[lower], stride)
        if not rest and t < width:
            weights[t] = weights.get(t, 0.0) + v[lower] * np.conj(v[upper]) * mu[t:, lower]
    for t, row in weights.items():
        out += 2.0 * ((coeffs[:, t:] * np.conj(coeffs[:, :width - t])) @ row).real
    return out


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

    def square_integrals(self, coeffs, quad: QuadConfig = DEFAULT_QUAD, stride=1):
        """int |f_i|^2 dmu for each f_i = g_i(z^stride), one row of ascending
        coefficients of g_i per row of ``coeffs``; the compact form of E f under z^n."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 2 or coeffs.shape[1] == 0:
            raise ConfigurationError(
                f"need one row of coefficients per polynomial, got shape {coeffs.shape}")
        if int(stride) != stride or stride < 1:
            raise ConfigurationError(f"stride must be a positive integer, got {stride}")
        if len(coeffs) == 0:
            return np.zeros(0)
        return self._square_integrals(coeffs, quad, int(stride))

    def _square_integrals(self, coeffs, quad, stride):
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

# The widening of ``Atomic._disk_masses``' bands, 256 units of 2^-52: 32 times
# the rounding of pseudo_distance.
ATOM_BAND_SLACK = 2.0**-44

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
    # The series depend on a only through (x, y): they are summed once per
    # distinct pair, a ring of a grid, and read back at each centre. A dict
    # groups them: np.unique's first call raised peak RSS by 0.4 MB. A lone
    # centre skips the dict, which would add a twentieth to its call.
    ring = slice(None)
    if len(centers) > 1:
        pairs = {}
        ring = np.array([pairs.setdefault(key, len(pairs)) for key in zip(x.tolist(), y.tolist())])
        x, y = np.array(list(pairs)).T.copy()
    total = np.zeros(len(centers))
    for j, vj in enumerate(v):
        c = j + beta + 2.0
        radial = poch(1.0, j) / poch(beta + 2.0, j)
        for k in range(j + 1):
            pair = vj * np.conj(v[k])
            if pair == 0:
                continue
            d = j - k
            series = np.zeros(len(x))
            for i in range(k + 1):
                coef = binom(k, i) / poch(d + 1.0, i) * poch(t, i) * poch(t + d, i) / poch(c, i)
                if c - 2.0 * t - d - i < 0:
                    term = (y ** (c - t - d - i)
                            * _hyp2f1_near_one(c - t, c - t - d, c + i, x, y))
                else:
                    term = y**t * _hyp2f1_near_one(t + i, t + d + i, c + i, x, y)
                series += coef * x**i * term
            weight = (1.0 if d == 0 else 2.0) * poch(t, d) / poch(1.0, d) * radial
            total += weight * np.real(pair * centers**d) * series[ring]
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
    the terms, which depend on y alone, are formed once per distinct y of a
    batch (lattice (0.5, 0.02) puts its 1394 centres on 10), and each
    centre's count and arithmetic depend on its own row and y alone.

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
            # the terms of each distinct y of the batch once, then one row per centre
            levels, level = np.unique(y[k], return_inverse=True)
            terms = (scaled[:count] * np.exp(0.5 * xlog1py(n[:count], -levels[:, None])))[level]
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
# the scaled form kappa_m zeta^(2t-1), zeta = 1 - w^2, which stays O(1) at the
# circle, by three routines: a power series in 1 - zeta at zeta >= 1/2; below
# _CONNECTION_ZETA, where m zeta <= _CONNECTION_REACH, the 1 - z connection
# with both series in zeta, summed to _CONNECTION_TERMS terms; and an FFT of
# the kernel everywhere between.
_CONNECTION_ZETA = 2.0**-4
_CONNECTION_REACH = 2.0
_CONNECTION_TERMS = 40
# Where 2t lies within _T_STEP of an integer the connection is undefined or
# cancels; it is interpolated in t through _T_NODES multiples of _T_STEP off it.
_T_STEP = 2.0**-6
_T_NODES = np.array([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6], dtype=float)


def _mode_width(m_max):
    """The least power of two >= m_max, the width the connection tables are asked for."""
    return 1 << max(0, int(m_max - 1).bit_length())


def _kernel_modes(t, zeta, m_max, square=None):
    """kappa_m zeta^(2t-1) for m = 0..m_max, one row per zeta = 1 - w^2 of the 1-d ``zeta``,
    at any real t != 0; the series reads w^2 from ``square`` where given.

    kappa_m = w^m (t)_m/m! 2F1(t, t+m; m+1; w^2) is the m-th Fourier coefficient
    of |1 - w e^(i phi)|^(-2t): the kernel power at t > 0, where it is positive
    and at most kappa_0, and a factor of |u|^p at t = -p/2 (``_circle_modes``).
    It depends on w only through zeta, so w^m is (1 - zeta)^(m/2) and no
    1 - w^2 is ever formed. Three routines share the range of zeta:

    - zeta >= 1/2: the series in x = 1 - zeta above (``_series_modes``);
    - zeta < _CONNECTION_ZETA and m_max zeta <= _CONNECTION_REACH (four times
      that past 512 modes): the 1 - z connection (DLMF 15.8.4), both series
      in zeta (``_connection_modes``);
    - otherwise: an FFT of the kernel, exact up to its aliasing, row by row
      at either sign of t (``_fft_modes``).

    Against 40-digit mpmath values at t in {0.3, 1, 1.77, 2, 2.5, 5/2 +- 5e-7,
    4.6, 5.12}, 1 - w from 2^-40 to 1/2 and m <= 256, every mode is within
    1.6e-13 of kappa_0, and at t in {-0.01, -0.3, -0.5, -0.75, -0.99, -1.4995,
    -3/2 +- 5e-7, -2.5 + 1e-9} and m <= 3000 within 4.4e-15 of it. A mode's
    error enters Psi multiplied by a mode of the other kind, which is at most
    its mean, so kappa_0 is the scale that matters.
    Past 512 modes the connection runs to m zeta = 8, where it is within
    6.1e-11 of kappa_0 at t in {1.77, 2, 2.3, 2.5, 2.5 + 2^-6, 3.2, 4.6, 5.12}
    and zeta in {2^-8, 2^-10}; those modes meet circle modes of |u|^p below
    1e-3 of its mean.
    """
    zeta = np.asarray(zeta, dtype=float)
    out = np.empty((len(zeta), m_max + 1))
    series = zeta >= 0.5
    if np.any(series):
        out[series] = _series_modes(t, zeta[series], m_max,
                                    1.0 - zeta[series] if square is None else square[series])
    reach = _CONNECTION_REACH * (1.0 if m_max <= 512 else 4.0)
    connection = ~series & (zeta < _CONNECTION_ZETA) & (zeta * m_max <= reach)
    for where, routine in ((connection, _connection_modes),
                           (~series & ~connection, _fft_modes)):
        if np.any(where):
            out[where] = routine(t, zeta[where], m_max)
    return out


@lru_cache(maxsize=8)
def _series_table(t):
    """Coefficients c[m, k] with kappa_m = w^m sum_k c[m, k] x^k, x = w^2, for m <= 128 + 16 t+.

    With t+ = max(t, 0), at x <= 1/2 the terms fall below 1e-18 of the first
    well before 64 + 12 t+, and the modes past 128 + 16 t+ are below
    2^-(m/2) m^(t-1), under 1e-20 of kappa_0.
    """
    width = 128 + 16 * int(np.ceil(max(t, 0.0)))
    terms = 64 + int(np.ceil(12.0 * max(t, 0.0)))
    m = np.arange(width + 1, dtype=float)
    k = np.arange(terms - 1, dtype=float)
    lead = np.cumprod(np.concatenate([[1.0], (t + m[:-1]) / m[1:]]))        # (t)_m / m!
    ratio = (t + k) * ((t + m[:, None]) + k) / (((m[:, None] + 1.0) + k) * (k + 1.0))
    table = lead[:, None] * np.cumprod(
        np.concatenate([np.ones((width + 1, 1)), ratio], axis=1), axis=1)
    table.setflags(write=False)
    return table


def _series_modes(t, zeta, m_max, x):
    """``_kernel_modes`` at zeta >= 1/2 from the power series in x = w^2 = 1 - zeta, which is
    exact; the modes past ``_series_table``'s width are 0."""
    table = _series_table(t)[:m_max + 1]
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
    m = 4096. Interpolated in t is what stays O(1) as zeta -> 0, the scaled
    modes at t > 0 and kappa_m itself at t < 0. Returns (smooth, powered):
    ``smooth`` sums L_j B a over the nodes t_j at t > 0 (L_j A_m b at t < 0),
    a and b the two series' coefficients, and ``powered`` lists each node's
    other term with the power of zeta it takes, (L_j A_m b, d_j) at t > 0 and
    (L_j B a, -d_j) at t < 0; L_j are the Lagrange weights of t among the
    nodes (one node, t itself, weighted 1, away from the integers). Every row
    depends on m alone, so the tables of the last two t are kept at the widest
    width asked for and grown by rebuilding, which leaves the rows already
    given unchanged; ``_psi_fourier`` frees both of its t's when it returns or
    raises. A table set holds 2 (width + 1) _CONNECTION_TERMS doubles,
    10.5 MB at 16384 modes, and where t is interpolated 13 (width + 1)
    _CONNECTION_TERMS, 68 MB.
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
    # At t < 0 near 0 nothing cancels (B ~ -t/2 and A_m ~ prod_{j<=m} (j-1+t)/(j-t)).
    if abs(t - n / 2.0) >= _T_STEP or (n == 0 and t < 0):
        nodes, weights = [t], [1.0]
    else:
        u = (t - n / 2.0) / _T_STEP
        s = _T_NODES if n != 0 else np.arange(1.0, len(_T_NODES) + 1.0)
        nodes = [n / 2.0 + sj * _T_STEP for sj in s]
        weights = [np.prod([(u - sr) / (sj - sr) for sr in s if sr != sj]) for sj in s]
    m = np.arange(width + 1, dtype=float)[:, None]
    k = np.arange(_CONNECTION_TERMS - 1, dtype=float)
    smooth, powered = None, []
    for tj, weight in zip(nodes, weights):
        # The series' coefficients, built in place: the tables are the largest
        # arrays of a Psi evaluation.
        first = np.ones((width + 1, _CONNECTION_TERMS))
        second = np.ones_like(first)
        np.add(m + 1.0, k, out=first[:, 1:])
        first[:, 1:] -= tj
        first[:, 1:] *= (1.0 + k) - tj
        first[:, 1:] /= ((2.0 + k) - 2.0 * tj) * (k + 1.0)
        np.add(tj + m, k, out=second[:, 1:])
        second[:, 1:] *= tj + k
        second[:, 1:] /= (2.0 * tj + k) * (k + 1.0)
        np.cumprod(first, axis=1, out=first)
        np.cumprod(second, axis=1, out=second)
        ratio = ((m[1:, 0] - 1.0) + tj) / (m[1:, 0] - tj)
        a_m = np.cumprod(np.concatenate([[1.0], ratio])) * (
            gamma_function(tj) ** 2 * np.tan(np.pi * tj) / (2.0 * np.pi * gamma_function(2.0 * tj)))
        first *= weight * gamma_function(2.0 * tj - 1.0) / gamma_function(tj) ** 2
        second *= (weight * a_m)[:, None]
        kept, pair = ((first, (second, 2.0 * tj - 1.0)) if t > 0
                      else (second, (first, 1.0 - 2.0 * tj)))
        if smooth is None:
            smooth = kept
        else:
            smooth += kept
        powered.append(pair)
    return smooth, powered


def _connection_modes(t, zeta, m_max):
    """``_kernel_modes`` near the circle by the 1 - z connection (``_connection_tables``)."""
    smooth, powered = _connection_tables(t, _mode_width(m_max))
    powers = zeta[:, None] ** np.arange(_CONNECTION_TERMS)
    modes = powers @ smooth[:m_max + 1].T
    for table, d in powered:
        modes += zeta[:, None] ** d * (powers @ table[:m_max + 1].T)
    if t < 0:
        modes *= zeta[:, None] ** (2 * t - 1)
    return np.exp(0.5 * np.arange(m_max + 1) * np.log1p(-zeta)[:, None]) * modes


def _fft_modes(t, zeta, m_max):
    """``_kernel_modes`` by an FFT of the kernel on N points, exact up to its aliasing.

    The aliasing is sum_{k != 0} kappa_(m+kN), below 1e-18 of kappa_0 for
    N >= 2 m_max + 2 + 48/(1 - w), and at t < 0, where the modes also fall like
    m^(t-1), within 4e-16 of it with 24/(1 - w). 1 - w = zeta/(1 + w) and
    |1 - w e^(i phi)|^2 = (1-w)^2 + 4 w sin^2(phi/2) are formed without
    cancellation. Batches hold at most DISK_BATCH_NODES points.
    """
    w = np.sqrt(1.0 - zeta)
    gap = zeta / (1.0 + w)
    sizes = 1 << np.ceil(np.log2(2 * m_max + 2 + (48.0 if t > 0 else 24.0) / gap)).astype(int)
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


def _kernel_mode_ratio(t, zeta):
    """A bound of kappa_n/kappa_0, t > 0, falling with n, for all n past each count of
    _MODE_GRID; one row per zeta.

    At t <= 1, kappa_n = sum_k c_k c_(k+n), c_k = (t)_k w^k/k!, and c_(k+n) <= w^n c_k.
    At t > 1, moving phi to phi - i eta in kappa_n, the mean of
    |1 - w e^(i phi)|^(-2t) e^(-i n phi), bounds it by e^(-n eta) (1 - w^2/r)^(-t)
    times the mean of |1 - r e^(i phi)|^(-t), r = w e^eta, at most
    (1 - r^2)^(1-t) Gamma(t-1)/Gamma(t/2)^2; 1 - r^2 = min(zeta, 2(t-1)/n') nearly
    minimises that at the next count n'. Below 1 it is 1.1 to 2.9 times the
    ratio at the counts (t in {1.2, 2.14, 4.5}, zeta from 0.002 to 0.03).
    """
    zeta = np.asarray(zeta, dtype=float)[:, None]
    n = _MODE_GRID + 1.0
    if t <= 1:
        return np.exp(0.5 * n * np.log1p(-zeta))
    shifted = np.minimum(zeta, 2.0 * (t - 1.0) / np.append(_MODE_GRID[1:], 2 * _MODE_GRID[-1]))
    r = np.sqrt(1.0 - shifted)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(shifted < zeta, 0.5 * (np.log1p(-shifted) - np.log1p(-zeta)), 0.0)
        gap = (2.0 * zeta - zeta**2 - shifted) / ((r + 1.0 - zeta) * r)      # 1 - w^2/r
        log_ratio = (-n * eta - t * np.log(gap) + gammaln(t - 1.0) - 2.0 * gammaln(t / 2.0)
                     + (1.0 - t) * np.log(shifted) + (2.0 * t - 1.0) * np.log(zeta)
                     - np.log(_kernel_modes(t, zeta[:, 0], 0)))
    return np.minimum(1.0, np.exp(log_ratio))


# ---------------------------------------------------------------------------
# Psi of a polynomial weight in angular Fourier modes

# Gauss nodes per radial panel, and the most angular modes of |u|^p a circle takes.
PSI_PANEL_NODES = 16
PSI_MAX_MODES = 2**14
# The sum of the trailing terms of a panel that may be dropped, relative to
# the panel's mean term.
PSI_MODE_CUT = 1e-12
# A panel beside a zero of u is narrowed until Gauss's error on its
# |z - z0|^p singularity, about (width/n^2)^(p+2), is below this.
_KINK_TOL = 1e-14
# A factor of |u|^p keeps its modes while their two-sided tail may exceed this
# of its mean: over PSI_MAX_MODES terms that moves a panel by under 1e-13.
_FACTOR_TAIL = 2.0**-62
# The mode counts a panel may take: each to 8, then eighth-octaves to 2^20.
_MODE_GRID = np.unique(np.round(2.0 ** (np.arange(-8, 161) / 8.0))).astype(np.int64)


@lru_cache(maxsize=64)
def _gauss_jacobi(n, exponent):
    """Nodes and weights of the n-point Gauss rule for (1+x)^exponent on [-1, 1]."""
    return _jacobi_rule(n, 0.0, exponent)


def _weight_zeros(coeffs):
    """(k, kinks, roots, gaps): the order k of the zero of u at 0, 1 - |z0|^2 for its
    other zeros inside, and every root of u / z^j, j the exact order, with its 1 - |z|^2.

    A zero with |z0|^2 < 2^-52 counts as one at 0 in k and the kinks, which only
    grade the radial panels: |u|^p differs from its value with the zero at 0
    only on |z|^2 of the order of |z0|^2, whose share of any panel is below
    rounding. Its factor of |u|^p is still taken as it is.
    """
    order = next(i for i, c in enumerate(coeffs) if c != 0 or i == len(coeffs) - 1)
    rest = np.asarray(coeffs[order:], dtype=complex)
    roots = np.roots(rest[::-1]) if len(rest) > 1 else np.zeros(0, dtype=complex)
    gaps = one_minus_modulus_sq(roots)
    tiny = modulus(roots) ** 2 < 2.0**-52
    inside = ~tiny & (np.abs(roots) < 1.0)
    return order + int(np.sum(tiny)), tuple(sorted(set(gaps[inside].tolist()))), roots, gaps


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
    (key, sigma, s, weights) per panel; ``key`` names the nodes, so that the
    rings of one evaluation share the circle modes of the panels they share.
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
    # Points within 2^-40 of each other, relative to their distance to the ends,
    # such as a kink at 1/2 but for rounding, make one: the panel between them
    # would put its circles on a zero.
    points = sorted(points)
    points = [a for a, b in zip(points, points[1:] + [2.0]) if b - a > 2.0**-40 * min(b, 1.0 - a)]
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


def _factor_sums(p, zeta, square, shift=0.0):
    """Bounds of the sums of |a_(n - shift)| over each stretch of _MODE_GRID (a last axis),
    a_n the modes of |1 - x e^(i phi)|^p, x^2 = ``square`` = 1 - zeta (any shape).

    With t = -p/2, a_n = x^n (t)_n/n! 2F1(t, t+n; n+1; x^2), of one sign for n > p/2.
    By Euler's integral that 2F1 is the mean of (zeta + x^2 V)^(p/2), V a Beta(1-t, n+t)
    variable, so at most (zeta + max(E V, (E V^(p/2))^(2/p)))^(p/2) by Jensen's and
    Minkowski's inequalities; no mode exceeds (1 + x)^p. The bound falls with n, so
    a stretch takes its first mode's times its length, and the last, endless, x^n's sum.
    """
    t = -p / 2.0
    x = np.sqrt(square)[..., None]
    n = np.maximum(_MODE_GRID + 1.0 - np.asarray(shift)[..., None], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        moment = np.exp((gammaln(1.0 - 2.0 * t) + gammaln(n + 1.0) - gammaln(1.0 - t)
                         - gammaln(n + 1.0 - t)) / -t)
        bound = np.exp(np.where(n > -t, n * np.log(x) + gammaln(n + t) - gammaln(t)
                                - gammaln(n + 1.0) - t * np.log(zeta[..., None] + np.maximum(
                                    (1.0 - t) / (n + 1.0), moment)), p * np.log1p(x)))
    return np.concatenate([bound[..., :-1] * np.diff(_MODE_GRID),
                           bound[..., -1:] * (1.0 + x) / zeta[..., None]], axis=-1)


def _circle_layout(roots, gaps, lead, order, p, sigma, s):
    """How |u|^p factors on the circles |z|^2 = s = 1 - sigma of some panels, one tuple a panel.

    With u = lead z^order prod_j (z - z_j), on |z| = rho each |z - z_j| is
    max(rho, |z_j|) |1 - x_j e^(+-i(theta - arg z_j))|, x_j = min(rho/|z_j|, |z_j|/rho),
    so |u|^p is e^``log_scale`` times the product of the |1 - x_j e^(i phi)|^p,
    and by Jensen's formula its mean g_0 is at least that constant.
    zeta_j = 1 - x_j^2 is |s - |z_j|^2| / max(s, |z_j|^2), the difference taken
    as sigma - (1 - |z_j|^2) where |z_j|^2 >= 1/2, and ``square`` = x_j^2 is
    1 - zeta where zeta < 1/2 and the ratio otherwise, where 1 - zeta may round
    it away. Past ``lengths`` a factor's tail is below _FACTOR_TAIL of its mean,
    and ``spread`` is the most that the factors of a circle but its nearest (of
    least zeta) reach. ``sums`` bounds the sums of |g_m|/g_0 over the stretches
    of _MODE_GRID (``_factor_sums``): writing p = 2k + q, 0 <= q < 2, a factor's
    modes sum to at most (1 + x)^(2k) (2 (1 + x^2)^(q/2) - (1 - x)^q), and the
    others move the nearest one's at most ``spread``. Returns (zeta, square,
    theta, lengths, log_scale, spread, sums) for each panel.
    """
    modsq = np.abs(roots) ** 2
    diff = np.where(modsq < 0.5, modsq - s[:, None], sigma[:, None] - gaps)
    zeta = np.abs(diff) / np.maximum(s[:, None], modsq)
    square = np.where(zeta < 0.5, 1.0 - zeta, np.minimum(s[:, None], modsq) / np.maximum(
        s[:, None], modsq))
    log_scale = p * (np.log(abs(lead)) + 0.5 * order * np.log(s)
                     + 0.5 * np.log(np.maximum(s[:, None], modsq)).sum(axis=1))
    near = np.argmin(zeta, axis=1) if len(roots) else np.zeros(len(s), dtype=int)
    far = np.arange(len(roots)) != near[:, None]
    found = 2.0 * np.cumsum(_factor_sums(p, zeta, square)[..., ::-1], axis=-1)[..., ::-1] \
        <= _FACTOR_TAIL
    lengths = np.where(found.any(axis=-1), _MODE_GRID[np.argmax(found, axis=-1)], 2**50)
    spread = np.sum(far * lengths, axis=1).reshape(-1, PSI_PANEL_NODES).max(axis=1)
    x, q = np.sqrt(square), p % 2.0
    far_sums = np.prod(np.where(far, (1.0 + x) ** (p - q) * (
        2.0 * (2.0 - zeta) ** (q / 2.0) - (zeta / (1.0 + x)) ** q), 1.0), axis=1)
    rows = np.arange(len(s))
    nearest = (zeta[rows, near], square[rows, near]) if len(roots) else (1.0 + 0 * s, 0 * s)
    sums = far_sums[:, None] * _factor_sums(p, *nearest, np.repeat(spread, PSI_PANEL_NODES))
    panels = (slice(i, i + PSI_PANEL_NODES) for i in range(0, len(s), PSI_PANEL_NODES))
    return [(zeta[r], square[r], np.angle(roots), lengths[r], log_scale[r], int(w),
             sums[r].max(axis=0)) for r, w in zip(panels, spread)]


def _circle_modes(p, layout, size, count):
    """g_m, m <= count < size - spread, of |u|^p on each circle of a panel (``_circle_layout``).

    The product of the factors' values at 2 size angles transforms back to the
    circular convolution of their modes, exact below size - spread. A factor
    whose modes past ``lengths`` < size fall below _FACTOR_TAIL takes its values
    in closed form, which alias nothing above that; a circle's nearest factor
    with more takes them from its modes to size - 1, the kernel power's at
    t = -p/2 (``_kernel_modes`` times zeta^(1+p)). u is never evaluated. Circles
    go a few at a time, at most DISK_BATCH_NODES values.
    """
    zeta, square, theta, lengths, log_scale, spread, _ = layout
    out = np.empty((len(zeta), count + 1), dtype=complex)
    angles = np.pi * np.arange(2 * size) / size
    step = max(1, DISK_BATCH_NODES // (2 * size))
    for rows in (slice(lo, lo + step) for lo in range(0, len(zeta), step)):
        values = np.ones((len(zeta[rows]), 2 * size))
        for j, turn in enumerate(theta):
            z, w2, long = zeta[rows, j], square[rows, j], lengths[rows, j] >= size
            x = np.sqrt(w2[~long])[:, None]        # |1 - x e^(i psi)|^2 = (1-x)^2 + 4x sin^2(psi/2)
            values[~long] *= ((z[~long, None] / (1.0 + x)) ** 2
                              + 4.0 * x * np.sin((angles - turn) / 2.0) ** 2) ** (p / 2.0)
            if np.any(long):
                modes = _kernel_modes(-p / 2.0, z[long], size - 1, w2[long]) * (
                    z[long, None] ** (1.0 + p) * (2 * size) * np.exp(-1j * turn * np.arange(size)))
                values[long] *= np.fft.irfft(modes, n=2 * size)
        out[rows] = np.fft.rfft(values)[:, :count + 1]
    out *= (np.exp(log_scale) / (2 * size))[:, None]
    return out


def _psi_fourier(coeffs, p, beta, centers, y, t):
    """Psi of |u|^p dA_beta at each a of the 1-d ``centers``, in angular Fourier modes.

    With s = |z|^2 and sigma = 1 - s,

        Psi(a) = y^t (beta+1) int_0^1 (1-s)^beta sum_m kappa_m
                 Re[conj(g_m(s)) e^(-i m arg a)] ds,   y = 1 - |a|^2,

    m >= 1 counted twice, where g_m(s) are the angular modes of |u|^p on the
    circle |z|^2 = s and kappa_m those of the kernel power at 1 - w^2 =
    sigma + s y (``_kernel_modes``). The radial integral runs on
    ``_radial_panels``. Everything depends on a only through y and arg a, so
    the centres handed one y share one evaluation of the mode sums D_m, and
    each centre's value is one sum over m of D_m e^(i m arg a). ``psi_sup``
    and ``psi_heatmap`` hand every centre of a ring the same y, so each ring is
    one evaluation.

    The g_m are closed forms in the zeros of u (``_circle_modes``). Nothing is
    aliased; what is dropped is the tail past each panel's mode count, set per y
    from bounds of both kinds of modes (``_mode_counts``) and trimmed on the
    computed terms (``_panel_sums``), below PSI_MODE_CUT of the panel's mean
    term. A panel's circle modes are formed once for all the rings whose counts
    share a power of two, and handed to each ring's sum over that panel alone;
    a ring adds its panels' sums in its own order (``_mode_sums``), so a
    centre's value depends on its own y and direction alone.

    Refused: where a circle needs more than PSI_MAX_MODES modes, which takes a
    zero of u within a few thousandths of the unit circle and a centre about as
    deep; EvaluationError names the modes needed and the zero nearest the circle.

    Validated depth: 1 - |a| from 2^-1 to 2^-40, on and off the real axis. At
    p in {2, 4}, against ``_psi_squared``, within 1e-12 of the largest value
    on the circle, beta = -0.875 and u(0) = 0 included. At odd and non-integer
    p, within 1e-10 of the same with twice the panel nodes and a mode cut 100
    times tighter. Past 2^-40 it stays finite to the last grid level,
    1 - |a| = 2^-53.
    """
    if not len(centers):
        return np.empty(0)
    # Leading coefficients below 2^-52 of the largest stand for zeros past 2^52,
    # whose roots and squares overflow; dropping them moves u on the disk by
    # less than 2^-52 of its largest coefficient.
    big = max(map(abs, coeffs))
    coeffs = coeffs[:max(i for i, c in enumerate(coeffs) if abs(c) >= 2.0**-52 * big) + 1]
    try:
        order, kinks, roots, gaps = _weight_zeros(coeffs)
        rings = {y_value: _radial_panels(y_value, kinks, p, beta, order * p / 2.0)
                 for y_value in np.unique(y)}
        panels = {panel[0]: panel for plan in rings.values() for panel in plan}
        layouts = dict(zip(panels, _circle_layout(
            roots, gaps, next(c for c in coeffs[::-1] if c != 0),
            next(i for i, c in enumerate(coeffs) if c != 0), p,
            *(np.concatenate([panel[i] for panel in panels.values()]) for i in (1, 2)))))
        counts = {y_value: _mode_counts(p, beta, t, y_value, plan, layouts, roots)
                  for y_value, plan in rings.items()}
        uses = {}               # (panel, size): the (y, place in its ring) that take its circle modes
        for y_value, plan in rings.items():
            for i, (panel, (_, size, _)) in enumerate(zip(plan, counts[y_value])):
                uses.setdefault((panel[0], size), []).append((y_value, i))
        rows = {y_value: [None] * len(plan) for y_value, plan in rings.items()}
        for (key, size), taken in uses.items():
            widest = max(counts[y_value][i][0] for y_value, i in taken)
            modes = _circle_modes(p, layouts[key], size, widest)
            for y_value, i in taken:
                count, _, rest = counts[y_value][i]
                rows[y_value][i] = _panel_sums(t, beta, rings[y_value][i], y_value,
                                               modes[:, :count + 1], rest)
        # numpy's vector loops round arctan2 and exp differently from its strided
        # ones; on contiguous input a value does not depend on its place.
        centers = np.ascontiguousarray(centers)
        directions = np.angle(centers)
        out = np.empty(len(centers))
        for y_value, plan in rings.items():
            at = np.flatnonzero(y == y_value)
            modes = _mode_sums(rows[y_value])
            m = np.arange(len(modes))
            weights = np.where(m == 0, 1.0, 2.0)
            out[at] = np.sum(weights * (modes * np.exp(1j * m * directions[at, None])).real, axis=1)
        return out
    finally:
        # Both t's tables serve this call alone: 68 MB each where t is interpolated.
        _CONNECTION_TABLES.pop(t, None)
        _CONNECTION_TABLES.pop(-p / 2.0, None)


def _mode_counts(p, beta, t, y, panels, layouts, roots):
    """(count, size, rest) per panel at one y: the modes of |u|^p it takes, the power of
    two its circle modes are formed at, and the bound of what the rest would add.

    ``count`` is the least of _MODE_GRID past which the terms |kappa_m g_m| of every
    circle sum to at most PSI_MODE_CUT of its mean term: the layout bounds the sums
    of |g_m|/g_0 over each stretch of the grid, and ``_kernel_mode_ratio`` then
    kappa_m/kappa_0 at the panel's least zeta, where it is largest. Past
    PSI_MAX_MODES, EvaluationError. ``rest`` is relative to the mean term.
    """
    nearest = np.array([np.min(sigma + s * y) for _, sigma, s, _ in panels])
    terms = _kernel_mode_ratio(t, nearest) * np.array([layouts[key][-1] for key, *_ in panels])
    tails = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    found = tails <= PSI_MODE_CUT
    first = np.argmax(found, axis=1)
    need = np.where(found.any(axis=1), _MODE_GRID[first], np.inf) \
        + [layouts[key][5] + 1 for key, *_ in panels]
    if need.max() > PSI_MAX_MODES:
        z0 = roots[np.argmin(np.abs(1.0 - np.abs(roots)))]
        raise EvaluationError(
            f"Psi of |u|^{p} dA_{beta} at 1-|a|^2 = {y:.6g} needs {need.max():.0f} angular "
            f"modes of |u|^p on a circle, more than PSI_MAX_MODES = {PSI_MAX_MODES}; the zero "
            f"of u nearest the circle is z0 = {z0:.6g}, with |z0| = {abs(z0):.6g} and "
            f"1 - |z0| = {1.0 - abs(z0):.3g}")
    return [(int(_MODE_GRID[i]), max(32, _mode_width(int(n))), tails[k, i])
            for k, (i, n) in enumerate(zip(first, need))]


def _mode_sums(rows):
    """D_m of one y: its panels' sums (``_panel_sums``) added in their order."""
    sums = np.zeros(max(len(row) for row in rows), dtype=complex)
    for row in rows:
        sums[:len(row)] += row
    return sums


def _panel_sums(t, beta, panel, y, modes, rest):
    """D_m = y^t (beta+1) int (1-s)^beta kappa_m g_m ds over one panel at one y, from the
    circle modes ``modes`` it takes, up to its last mode kept.

    The trailing modes are dropped while they and ``rest`` (the modes past the
    count, ``_mode_counts``) stay below PSI_MODE_CUT of the panel's mean term.
    """
    _, sigma, s, weights = panel
    zeta = sigma + s * y
    kernel = _kernel_modes(t, zeta, modes.shape[1] - 1)
    kernel *= ((beta + 1.0) * weights
               * np.exp(t * np.log(y) + (1.0 - 2.0 * t) * np.log(zeta)))[:, None]
    terms = np.einsum("nm,nm->m", kernel, np.abs(modes))
    beyond = np.append(np.cumsum(terms[:0:-1])[::-1], 0.0)     # beyond[j]: the terms past m = j
    kept = int(np.argmax(beyond + rest * terms[0] <= PSI_MODE_CUT * terms[0])) + 1
    kernel, modes = kernel[:, :kept], modes[:, :kept]
    return (np.einsum("nm,nm->m", kernel, modes.real)
            + 1j * np.einsum("nm,nm->m", kernel, modes.imag))


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

    def _moments(self, k):
        """int |z|^(2k) dmu = scale B(k+1, gamma+1) at each integer degree k."""
        return self.scale * beta_function(k + 1.0, self.gamma + 1.0)

    def _square_integrals(self, coeffs, quad, stride):
        """sum_m |g_m|^2 scale B(nm+1, gamma+1), n = stride: the monomials are
        orthogonal (``_moment_squares`` with v = 1)."""
        return _moment_squares(coeffs, np.ones(1), self._moments, stride)

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

    def _square_integrals(self, coeffs, quad, stride):
        """Exact where |u|^p |f|^2 = m |v f|^2 (``_as_square``): m times the
        moment sums of v(z) g(z^stride) against dA_beta (``_moment_squares``),
        with no product row of v formed; otherwise each row on the rule."""
        square = self._as_square()
        if square is not None:
            v, mass = square
            return mass * _moment_squares(coeffs, v, WeightedArea(self.beta)._moments, stride)
        polys = [Polynomial(tuple(row)) for row in coeffs]
        return np.array([self.integrate(lambda z, g=g: np.abs(g(z ** stride)) ** 2, quad)
                         for g in polys])

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

    @cached_property
    def _by_modulus(self):
        """(|z|, z, mass) of the atoms in ascending order of |z|."""
        radii = modulus(self.points.ravel())
        order = np.argsort(radii)
        return radii[order], self.points.ravel()[order], self.masses.ravel()[order]

    def _disk_masses(self, centers, y, r):
        """The masses of the atoms with pseudo_distance(a, z) < tanh(r), in batches of
        centres in ascending |a|, each against only the atoms of its band.

        D(a, r) lies in the annulus (|a| - s)/(1 - s|a|) <= |z| <= (|a| + s)/(1 + s|a|),
        s = tanh(r). pseudo_distance rounds a - z and 1 - conj(a) z to a few units
        of 2^-52 and divides by |1 - conj(a) z| > y / 2, so it is off by less than
        8 2^-52 / y; the band is taken for s + ATOM_BAND_SLACK / y, and its edges
        are moved out by ATOM_BAND_SLACK. The test itself is unchanged, so the
        same atoms count.
        """
        radii, points, masses = self._by_modulus
        s = np.tanh(r)
        order = np.argsort(modulus(centers))
        rho = modulus(centers[order])
        wide = np.minimum(s + ATOM_BAND_SLACK / y[order], 1.0)
        inner = (rho - wide) / (1.0 - wide * rho) - ATOM_BAND_SLACK
        outer = (rho + wide) / (1.0 + wide * rho) + ATOM_BAND_SLACK
        step = max(1, DISK_BATCH_NODES // points.size)
        out = np.empty(len(centers))
        for lo in range(0, len(centers), step):
            k = order[lo:lo + step]
            band = slice(bisect_left(radii, inner[lo:lo + step].min()),
                         bisect_right(radii, outer[lo:lo + step].max()))
            inside = pseudo_distance(centers[k, None], points[band]) < s
            out[k] = np.where(inside, masses[band], 0.0).sum(axis=1)
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

    def _square_integrals(self, coeffs, quad, stride):
        """sum_i m_i |g(z_i^stride)|^2, by Horner's rule in w = z_i^stride on
        chunks of atoms x polynomials."""
        points, masses = self.points.ravel(), self.masses.ravel()
        step = max(1, DISK_BATCH_NODES // len(coeffs))
        out = np.zeros(len(coeffs))
        for lo in range(0, points.size, step):
            z = points[lo:lo + step] ** stride
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

    def _square_integrals(self, coeffs, quad, stride):
        return sum(part._square_integrals(coeffs, quad, stride) for part in self.parts)

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
    if not 0 < r < np.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
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
