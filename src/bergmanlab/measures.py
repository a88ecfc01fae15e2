"""Finite positive Borel measures on the disk and quadrature against them.

The reference weight is the probability measure

    dA_alpha(z) = (alpha + 1) (1 - |z|^2)^alpha dA(z),   alpha > -1,

with dA the normalized area measure. Integration uses a tensor rule that is
Gauss-Jacobi in the radial direction, with the boundary factor (1 - rho^2)^alpha
absorbed analytically into the Jacobi weight, and uniform (trapezoidal) in
angle. The radial substitution t = rho^2 gives

    int_D f dA_alpha = (alpha+1)/(2 pi) int_0^{2pi} int_0^1 f(sqrt(t) e^{i th}) (1-t)^alpha dt dth,

so a Jacobi rule with weight (1-x)^alpha on [-1, 1] integrates the radial
factor exactly for polynomial data regardless of how close alpha is to -1.
The angles are 2 pi j / N from 0, so rotating by 2 pi k / n for n | N permutes
the nodes of each ring; ``ring_shifts`` and ``rotations`` turn that into rolls
of the angular axis. ``ring_shifts`` knows the rule's node arrays by identity.

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

at a centre or an array of centres: in closed form for radial densities, as
a finite sum of Gauss functions 2F1 for polynomial weights at even p, by a
Mobius pullback for polynomial weights at other p, and as a finite sum over
the atoms for atoms.

Each measure also states the exponent e for which sup_a psi(a, t) is finite
exactly when e >= 0 (``boundary_exponent``): gamma + 2 - t for radial
densities, beta + 2 - t for polynomial weights, +inf for atoms and for the
zero measure, and the minimum over the parts for sums. It is formed in
rational arithmetic from the decimals the floats print as (``as_fraction``)
and rounded once, so its sign is exact: dA_alpha at t = 2 + alpha gives 0.

Each measure also integrates |f|^2 for a stack of polynomials f, one row of
ascending coefficients each (``square_integrals``): as sum_n |c_n|^2 times
the moments scale * B(n+1, gamma+1) for radial densities, as those moments of
u^(p/2) f for polynomial weights at even p (on the rule at other p), as a
finite sum over the atoms for atoms, and as the sum over the parts for sums.
``poly_multiply`` and ``poly_power`` give the coefficients of products and
powers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import binom, hyp2f1, poch, roots_jacobi
from scipy.special import beta as beta_function

from .config import validate
from .errors import ConfigurationError, EvaluationError
from .geometry import SpaceParams, as_disk_point, disk_realization, kernel_power_modulus, \
    modulus, one_minus_modulus_sq, pseudo_distance

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

# The node arrays of the rules ``build_quadrature`` made, by id, for as long as
# each lives: ``ring_shifts`` recognises them by identity and pins none of them.
_RULE_NODES = weakref.WeakValueDictionary()


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
    """Sum of weights * vals over the node axes, with vals times ``density`` if given.

    ``vals`` holds the integrand at ``nodes``, or a stack of integrands with a
    leading member axis; the result is a scalar or one value per member. A
    stack is weighted and summed one member row at a time, so no temporary
    is the size of the stack, and each row's sum is the one it has alone.
    """
    vals = np.asarray(vals)
    vals = np.broadcast_to(vals, np.broadcast_shapes(vals.shape, np.shape(weights)))
    members = vals.shape[: vals.ndim - np.ndim(weights)]
    totals = []
    for k, row in enumerate(vals.reshape((-1,) + np.shape(weights))):
        if density is not None:
            row = density * row
        _check_finite(row, nodes, np.unravel_index(k, members))
        totals.append(np.sum(weights * row))
    if not members:
        return _as_scalar(totals[0])
    totals = np.array(totals).reshape(members)
    if np.iscomplexobj(totals) and np.all(
            np.abs(totals.imag) <= 1e-15 * np.maximum(1.0, np.abs(totals.real))):
        return totals.real
    return totals


def _check_finite(vals, nodes, member=()):
    """Raise naming the first node where ``vals`` is not finite; ``member`` prefixes its index."""
    finite = np.isfinite(vals)
    if not np.all(finite):
        idx = np.argwhere(~np.atleast_1d(finite))
        first = tuple(int(i) for i in idx[0])
        node = np.atleast_1d(nodes)[first[-np.ndim(nodes):]] if np.ndim(nodes) else nodes
        raise EvaluationError(
            f"integrand is not finite at quadrature node z = {node} "
            f"(index {tuple(int(i) for i in member) + first})"
        )


def _as_scalar(x):
    x = complex(x)
    if abs(x.imag) <= 1e-15 * max(1.0, abs(x.real)):
        return x.real
    return x


# A rule at the default 256 x 512 nodes holds about 3 MB and a doubled one about
# 12 MB, so the cache pins at most 24 MB at default sizes and 96 MB at doubled
# ones. Eight entries hold every rule of one suite pass: five for the carleson
# suite, two for the operator suite.
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
    # Node [i, j] is rho_i exp(2 pi i j / n_angular), angles from 0 (``ring_shifts``).
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
    _RULE_NODES[id(nodes)] = nodes
    return rule


def ring_shifts(z, n_dirs):
    """Angular index shifts that rotate rule nodes by the angles 2 pi k / n_dirs.

    On the rule layout, exp(-2 pi i k / n_dirs) z[i, j] = z[i, j - s_k] with
    s_k = k * n_angular / n_dirs: the trapezoid in angle is invariant under
    these rotations, which only permute its nodes. So g(exp(-2 pi i k / n_dirs) z)
    is ``np.roll(g(z), s_k, axis=-1)`` for any g, and ``rotations`` stacks those
    rolls. Returns the n_dirs shifts, or None unless ``z`` is itself the node
    array of a ``build_quadrature`` rule (not a view or copy) and n_dirs divides
    its angle count: atoms, and rules of other angle counts, need direct evaluation.
    """
    if _RULE_NODES.get(id(z)) is not z or z.shape[1] % n_dirs:
        return None
    step = z.shape[1] // n_dirs
    return [k * step for k in range(n_dirs)]


def rotations(values, shifts):
    """Stack of ``np.roll(values, s, axis=-1)`` for each shift s of ``ring_shifts``."""
    n = values.shape[-1]
    out = np.empty((len(shifts),) + values.shape, dtype=values.dtype)
    for k, s in enumerate(shifts):
        out[k, ..., s:] = values[..., : n - s]
        out[k, ..., :s] = values[..., n - s:]
    return out


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


def poly_power(coeffs, k):
    """Ascending coefficients of the k-th power of each polynomial on the last axis."""
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.ones(coeffs.shape[:-1] + (1,), dtype=complex)
    for _ in range(k):
        out = poly_multiply(out, coeffs)
    return out


# ---------------------------------------------------------------------------
# measures


class Measure:
    """Base class; subclasses are immutable after construction."""

    def integrate(self, g, quad: QuadConfig = DEFAULT_QUAD):
        """Integral of g, a constant or a callable on the measure's nodes.

        A callable may return a stack of integrands with a leading member
        axis; the sum then runs over the node axes only, one value per member.
        """
        raise NotImplementedError

    def disk_measure(self, a, r, quad: QuadConfig = DEFAULT_QUAD):
        """Masses of the metric disks D(a, r), for a scalar or an array of centres.

        The masses come back in the shape of ``a``, and a scalar centre gives a
        float. Densities integrate each disk with a Euclidean-disk rule,
        evaluated in batches of at most ``DISK_BATCH_NODES`` nodes; radial
        densities evaluate that rule once per distinct |a|, on the real axis,
        since their disk mass depends on |a| alone. Atoms, grid densities
        included, sum the masses inside each disk, in chunks of centres x atoms
        of the same budget.
        """
        a = np.asarray(a, dtype=complex)
        masses = self._disk_masses(a.ravel(), r, quad).reshape(a.shape)
        return float(masses) if masses.ndim == 0 else masses

    def _disk_masses(self, centers, r, quad):
        """mu(D(a, r)) for each a of the 1-d array ``centers``."""
        raise NotImplementedError

    def total_mass(self, quad: QuadConfig = DEFAULT_QUAD):
        return float(self.integrate(1.0, quad))

    def psi(self, a, t, quad: QuadConfig = DEFAULT_QUAD):
        """Kernel-power transform int ((1-|a|^2)/|1-conj(a) z|^2)^t dmu(z).

        ``a`` is a centre or an array of centres in the open disk; the values
        come back in the shape of ``a``, and a scalar centre gives a float.
        """
        a = np.asarray(a, dtype=complex)
        values = self._psi(a.ravel(), t, quad).reshape(a.shape)
        return float(values) if values.ndim == 0 else values

    def _psi(self, centers, t, quad):
        """The transform at each a of the 1-d array ``centers``."""
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


# Node budget of one batch of disk masses, or of centres x atoms in an atomic
# transform, or of atoms x polynomials in ``square_integrals``: 2**16 complex
# nodes are 1 MB. Whole disks (and whole atom sets) go
# in a batch, so one larger than the budget goes alone.
DISK_BATCH_NODES = 2**16


def _density_disk_measure(density, centers, r, quad):
    """Masses of D(a, r), a in the 1-d ``centers``, under a density, by the Euclidean-disk rule."""
    disk_centers, disk_radii = disk_realization(centers, r)
    base, weights = _euclid_disk_base(max(16, quad.n_radial // 4), max(32, quad.n_angular // 4))
    step = max(1, DISK_BATCH_NODES // base.size)
    masses = np.empty(len(centers))
    for lo in range(0, len(centers), step):
        radius = disk_radii[lo:lo + step, None, None]
        nodes = disk_centers[lo:lo + step, None, None] + radius * base
        vals = density(nodes)
        _check_finite(vals, nodes)
        masses[lo:lo + step] = np.sum(radius**2 * weights * vals, axis=(1, 2))
    return masses


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
    """
    f = hyp2f1(a, b, c, x)
    if c - a - b < 1:
        f = f + a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, x) * ((1.0 - x) - y)
    return f


@dataclass(frozen=True)
class RadialDensity(Measure):
    """scale * (1 - |z|^2)^gamma dA; total mass scale/(gamma+1)."""

    gamma: float
    scale: float = 1.0

    def __post_init__(self):
        if not self.gamma > -1:
            raise ConfigurationError(f"gamma must exceed -1, got {self.gamma}")
        if self.scale < 0:
            raise ConfigurationError(f"scale must be nonnegative, got {self.scale}")

    def integrate(self, g, quad=DEFAULT_QUAD):
        out = _rule(self.gamma, quad).integrate(g)
        return out * (self.scale / (self.gamma + 1.0))

    def density(self, z):
        return self.scale * (1.0 - np.abs(z) ** 2) ** self.gamma

    def _disk_masses(self, centers, r, quad):
        # D(a, r) is D(|a|, r) rotated, and the density is radial, so both carry
        # one mass: one disk rule per distinct |a|, on the real axis. The two
        # rules differ by a turn of their angular nodes, which the converged
        # trapezoid does not see.
        radii, where = np.unique(modulus(centers), return_inverse=True)
        return _density_disk_measure(self.density, radii.astype(complex), r, quad)[where]

    def _psi(self, centers, t, quad):
        """Exact at every |a| < 1: with x = |a|^2 and c = gamma + 2,

            psi = scale/(gamma+1) * (1-x)^m * 2F1(m, m; c; x),   m = min(t, c - t).

        The angular average of the kernel power is 2F1(t, t; 1; x rho^2); its
        integral against (1 - rho^2)^gamma in rho^2 is 2F1(t, t; c; x)/(gamma+1),
        and Euler's transformation (DLMF 15.8.1) trades t for c - t. Taking the
        smaller of the two keeps c - 2m >= 0, so 2F1 has at most a logarithmic
        singularity at x = 1. 1 - x comes from ``one_minus_modulus_sq``, and
        where c - 2m < 1 ``_hyp2f1_near_one`` corrects 2F1 for the rounding of
        x. Together they keep the value within 2e-13 relative of a 40-digit
        oracle out to 1 - |a| = 2^-40, on and off the real axis, and within
        1e-10 where c - 2m < 1 (3e-11 in the logarithmic case c = 2m; without
        the correction it is 1.5e-6). The boundary exponent is gamma + 2 - t.
        """
        c = self.gamma + 2.0
        m = min(t, c - t)
        y = one_minus_modulus_sq(centers)
        return (self.scale / (self.gamma + 1.0) * y**m
                * _hyp2f1_near_one(m, m, c, modulus(centers) ** 2, y))

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
# 16 MB at doubled ones. Four entries hold the weights one operator runs.
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

    def integrate(self, g, quad=DEFAULT_QUAD):
        rule = _rule(self.beta, quad)
        vals = g(rule.nodes) if callable(g) else g
        return _weighted_sum(rule.weights, vals, rule.nodes, _weight_on_rule(self, quad))

    def density(self, z):
        return np.abs(self.u(z)) ** self.p * (self.beta + 1.0) * (1.0 - np.abs(z) ** 2) ** self.beta

    def _disk_masses(self, centers, r, quad):
        return _density_disk_measure(self.density, centers, r, quad)

    def _psi(self, centers, t, quad):
        """Finite sum of 2F1 at even p; otherwise radial for constant u, else the pullback."""
        if self.p % 2 == 0:
            return self._psi_even(centers, t)
        if self.u.is_constant:
            mass = abs(self.u.coeffs[0]) ** self.p
            return RadialDensity(self.beta, mass * (self.beta + 1.0))._psi(centers, t, quad)
        return np.array([self._psi_pullback(a, t, quad) for a in centers])

    def _psi_even(self, centers, t):
        """Exact at even p: a finite sum of Gauss functions 2F1 in x = |a|^2.

        Write |u|^p = |v|^2 with v = u^(p/2) = sum_j c_j z^j and expand
        |v|^2 = sum c_j conj(c_k) z^j conj(z)^k. For d = j - k >= 0 the angular
        average of the kernel power against e^(i d theta) is
        a^d rho^d (t)_d/d! 2F1(t, t+d; d+1; x rho^2), and Euler's integral
        against rho^(j+k) dA_beta turns the pair into

            (1-x)^t e Re[c_j conj(c_k) a^d] (t)_d/d! (beta+1) B(j+1, beta+1)
                * 3F2(t, t+d, j+1; d+1, c; x),      c = j + beta + 2,

        with e = 1 on the diagonal and 2 off it, for the pair and its
        conjugate. Since j + 1 = d + 1 + k, (j+1)_m/(d+1)_m is a polynomial
        of degree k in m, and its Newton expansion
        sum_i binom(k, i) m(m-1)...(m-i+1)/(d+1)_i makes the 3F2 the finite
        positive sum

            sum_{i<=k} binom(k, i)/(d+1)_i (t)_i (t+d)_i/(c)_i x^i 2F1(t+i, t+d+i; c+i; x).

        Where c - 2t - d - i < 0, Euler's transformation (DLMF 15.8.1) writes
        (1-x)^t 2F1 as (1-x)^(c-t-d-i) 2F1(c-t, c-t-d; c+i; x), which is
        bounded at x = 1. 1 - x comes from ``one_minus_modulus_sq``, and each
        2F1 goes through ``_hyp2f1_near_one``. For u in {z, z^2, 1+z/2, 1-z},
        p in {2, 4} and beta in {alpha, alpha+1} this matches a 40-digit 3F2
        oracle within 3e-13 relative from 1 - |a| = 2^-1 to 2^-40. The terms
        cancel where v is small near a/|a|, so the error is about eps times
        the sum of their moduli; by Cauchy-Schwarz that sum is at most
        deg(v) + 1 times the mean of Psi over the circle of radius |a|, so the
        sup over a circle keeps its accuracy.
        """
        coeffs = poly_power(self.u.coeffs, int(self.p) // 2)
        y = one_minus_modulus_sq(centers)
        x = modulus(centers) ** 2
        total = np.zeros(len(centers))
        for j, cj in enumerate(coeffs):
            c = j + self.beta + 2.0
            radial = (self.beta + 1.0) * beta_function(j + 1.0, self.beta + 1.0)
            for k in range(j + 1):
                pair = cj * np.conj(coeffs[k])
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

    def _psi_pullback(self, a, t, quad):
        """Transform at one centre by substituting z = phi_a(w).

        The kernel factor becomes (|1 - conj(a) w|^2/(1-|a|^2))^t and combines
        with the Jacobian and the pulled-back weight into

          (1-|a|^2)^(beta+2-t) * |1 - conj(a) w|^(2(t-2-beta)) * |u(phi_a(w))|^p

        integrated against dA_beta(w): no peaked factor remains.
        """
        rule = _rule(self.beta, quad)
        one_minus = 1.0 - np.conj(a) * rule.nodes
        vals = np.abs(self.u((a - rule.nodes) / one_minus)) ** self.p
        expo = 2.0 * (t - 2.0 - self.beta)
        if expo != 0.0:
            vals = vals * np.abs(one_minus) ** expo
        return (1.0 - abs(a) ** 2) ** (self.beta + 2.0 - t) * np.sum(rule.weights * vals)

    def boundary_exponent(self, t):
        """beta + 2 - t, that of dA_beta: |u|^p is bounded, and near every
        boundary point but the finitely many zeros of u it is bounded below."""
        return np.inf if self.u.is_zero else _exponent(self.beta, t)

    def _square_integrals(self, coeffs, quad):
        """Exact at even p, where |u|^p |f|^2 = |u^(p/2) f|^2 and dA_beta has
        the moments of ``RadialDensity``; at other p each row on the rule."""
        if self.p % 2 == 0:
            products = poly_multiply(coeffs, poly_power(self.u.coeffs, int(self.p) // 2))
            return WeightedArea(self.beta)._square_integrals(products, quad)
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
        if np.size(self.points) == 0:
            raise ConfigurationError("an atomic measure needs at least one atom")

    @classmethod
    def from_atoms(cls, atoms):
        """atoms: iterable of (point, mass)."""
        pts = as_disk_point(np.array([p for p, _ in atoms], dtype=complex))
        ms = np.array([m for _, m in atoms], dtype=float)
        if np.any(ms <= 0):
            raise ConfigurationError("atom masses must be positive")
        pts = np.atleast_1d(pts)
        pts.setflags(write=False)
        ms.setflags(write=False)
        return cls(points=pts, masses=ms)

    def integrate(self, g, quad=DEFAULT_QUAD):
        return _weighted_sum(self.masses, g(self.points) if callable(g) else g, self.points)

    def _disk_masses(self, centers, r, quad):
        points, masses = self.points.ravel(), self.masses.ravel()
        s = np.tanh(r)
        step = max(1, DISK_BATCH_NODES // points.size)
        out = np.empty(len(centers))
        for lo in range(0, len(centers), step):
            inside = pseudo_distance(centers[lo:lo + step, None], points) < s
            out[lo:lo + step] = np.sum(np.broadcast_to(masses, inside.shape), axis=1,
                                       where=inside)
        return out

    def _psi(self, centers, t, quad):
        points, masses = self.points.ravel(), self.masses.ravel()
        step = max(1, DISK_BATCH_NODES // points.size)
        out = np.empty(len(centers))
        for lo in range(0, len(centers), step):
            powers = kernel_power_modulus(centers[lo:lo + step, None], points, t)
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

    def _disk_masses(self, centers, r, quad):
        return sum(part._disk_masses(centers, r, quad) for part in self.parts)

    def _psi(self, centers, t, quad):
        return sum(part._psi(centers, t, quad) for part in self.parts)

    def boundary_exponent(self, t):
        return min(part.boundary_exponent(t) for part in self.parts)

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
        if np.any(vals < 0):
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


def measure_of_disk(mu: Measure, a, r, quad: QuadConfig = DEFAULT_QUAD):
    """mu(D(a, r)) for the metric disk; monotone in r.

    ``a`` is a centre or an array of centres; see ``Measure.disk_measure``.
    """
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    return mu.disk_measure(a, r, quad)


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
    n_angular values (the error points at ``<pointer>/values``), and atoms must
    lie inside the disk. Parts of a sum are pointed at by their index.
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
    except ValueError as exc:
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
