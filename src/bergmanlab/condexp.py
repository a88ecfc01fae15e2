"""Conditional expectation along the level sets of an analytic self-map.

For a non-constant analytic self-map phi of the disk with finite multiplicity,
the conditional expectation of f relative to the sigma-algebra generated by
phi averages f over the level set c_z = {zeta : phi(zeta) = phi(z)} away from
critical points, with weights inversely proportional to |phi'|^2:

    E(f)(z) = sum_j f(zeta_j) / |phi'(zeta_j)|^2  /  sum_j 1 / |phi'(zeta_j)|^2.

Supported map families: the identity, monomials z^n (level sets are exact
root-of-unity orbits with uniform weights), and finite Blaschke products
(level sets solved as polynomial root-finding with residual verification).
Only this module tells the families apart: ``expect_polynomial`` gives E of
a polynomial in closed form (None under a Blaschke product with two or more
zeros), and ``cond_expect_values`` evaluates E on an array of points. Under a
map of multiplicity 1 (the identity, z, a one-zero Blaschke product) every
level set is one point, so E is the identity and both pass f through.
Level sets and their weights are formed in one place, ``_level_sets``, over
an array of points; ``level_set`` reads it at one point, and
``cond_expect_values`` reads it everywhere except where a map of multiplicity
1 passes f through and where z^n on quadrature-rule nodes rolls f along its
ring.
``_level_average`` reduces f's values on a level set to E(f). Each map type
says whether E commutes with rotations (``commutes_with_rotations``). A
test-family sweep (``carleson.test_constant``) passes one dict to all its
calls, in which the Blaschke level sets of each node array are kept once
solved, so members cost one evaluation of f each and no further root-finding.

The point z = 0 is a critical point of every monomial z^n with n >= 2; the
expectation is defined off the critical set only, and callers evaluating on
grids are expected to use grids that avoid it (the quadrature nodes do).
``is_critical`` is the test for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .config import validate
from .errors import ConfigurationError, CriticalPointError, RootFindingError
from .measures import Polynomial, ring_shifts, rotations

RESIDUAL_TOL = 1e-10
CRITICAL_TOL = 1e-12
# Level-set points per batch of ``cond_expect_values``: 1 MB of complex points.
LEVEL_SET_BATCH = 2**16


class AnalyticSelfMap:
    """Base class for the supported self-map families."""

    multiplicity: int
    commutes_with_rotations = False     # whether E(f(w .)) = E(f)(w .) for all |w| = 1

    def __call__(self, z):
        raise NotImplementedError

    def derivative(self, z):
        raise NotImplementedError

    def spec(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(AnalyticSelfMap):
    commutes_with_rotations = True

    @property
    def multiplicity(self):
        return 1

    def __call__(self, z):
        return np.asarray(z, dtype=complex)

    def derivative(self, z):
        return np.ones_like(np.asarray(z, dtype=complex))

    def spec(self):
        return {"type": "identity"}


@dataclass(frozen=True)
class Monomial(AnalyticSelfMap):
    """phi(z) = z^n."""

    n: int
    commutes_with_rotations = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"monomial exponent must be >= 1, got {self.n}")

    @property
    def multiplicity(self):
        return self.n

    def __call__(self, z):
        return np.asarray(z, dtype=complex) ** self.n

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        return self.n * z ** (self.n - 1)

    def spec(self):
        return {"type": "monomial", "n": self.n}


@dataclass(frozen=True)
class BlaschkeProduct(AnalyticSelfMap):
    """Finite product of the factors (a_i - z)/(1 - conj(a_i) z)."""

    zeros: tuple

    def __post_init__(self):
        if not self.zeros:
            raise ValueError("Blaschke product needs at least one zero")
        if any(abs(a) >= 1 for a in self.zeros):
            raise ValueError("Blaschke zeros must lie in the open unit disk")

    @property
    def multiplicity(self):
        return len(self.zeros)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        # Temporaries go on the left: numpy reuses a large right-hand one in place
        # with the operands swapped, which can round complex products differently.
        for a in self.zeros:
            out = (a - z) * out / (1.0 - np.conj(a) * z)
        return out

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        total = np.zeros_like(z)
        for i, ai in enumerate(self.zeros):
            term = (abs(ai) ** 2 - 1.0) / (1.0 - np.conj(ai) * z) ** 2
            for j, aj in enumerate(self.zeros):
                if j != i:
                    term = (aj - z) * term / (1.0 - np.conj(aj) * z)
            total = total + term
        return total

    def numerator_coeffs(self):
        """Ascending coefficients of prod(a_i - z) and prod(1 - conj(a_i) z)."""
        num = np.array([1.0 + 0j])
        den = np.array([1.0 + 0j])
        for a in self.zeros:
            num = npoly.polymul(num, np.array([a, -1.0]))
            den = npoly.polymul(den, np.array([1.0, -np.conj(a)]))
        return num, den

    def spec(self):
        return {"type": "blaschke", "zeros": [[a.real, a.imag] for a in map(complex, self.zeros)]}


# Each self-map type's constructor, called with the fields of its validated spec.
_SELF_MAPS = {
    "identity": Identity,
    "monomial": Monomial,
    "blaschke": lambda zeros: BlaschkeProduct(tuple(complex(re, im) for re, im in zeros)),
}


def build_selfmap(spec, pointer="/phi"):
    """The self-map of a spec already validated against ``definitions/selfMap``."""
    fields = dict(spec)
    try:
        return _SELF_MAPS[fields.pop("type")](**fields)
    except ValueError as exc:
        raise ConfigurationError(f"invalid self-map spec: {exc}", pointer) from exc


def selfmap_from_config(cfg, pointer="/phi"):
    """Parse the self-map wire format: identity | monomial{n} | blaschke{zeros}.

    ``cfg`` is checked against ``definitions/selfMap`` of the package schema
    file and then built by ``build_selfmap``; errors carry a JSON pointer to
    the offending field.
    """
    return build_selfmap(validate(cfg, "definitions/selfMap", pointer), pointer)


@dataclass(frozen=True, eq=False)
class LevelSet:
    """Level set of phi through ``base`` with its averaging weights."""

    base: complex
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise RootFindingError(
                f"level-set weights sum to {self.weights.sum()}, expected 1"
            )
        if np.any(self.weights <= 0):
            raise RootFindingError("level-set weights must be positive")

    def average(self, f):
        return complex(np.sum(self.weights * f(self.points)))


def is_critical(phi: AnalyticSelfMap, z):
    """Whether |phi'(z)| <= CRITICAL_TOL, elementwise; E is defined only where not."""
    return np.abs(phi.derivative(z)) <= CRITICAL_TOL


def _level_sets(phi: AnalyticSelfMap, zs):
    """Level sets of phi through the points ``zs``: (points, weights), shape zs.shape + (m,).

    The weights are proportional to 1/|phi'|^2 on each level set and are not
    normalised. They are None on the uniform orbits of the identity and z^n,
    whose average is a plain mean. A Blaschke root rejected for lying outside
    the disk or at a critical point has weight 0, and its entry in ``points``
    is the base point, so that f is only ever evaluated on the level set.
    """
    zs = np.asarray(zs, dtype=complex)
    if isinstance(phi, Identity):
        return zs[..., None], None
    if isinstance(phi, Monomial):
        # |phi'| is constant on |zeta| = |z|, so the weights are exactly uniform.
        rot = np.exp(2j * np.pi * np.arange(phi.n) / phi.n)
        return zs[..., None] * rot, None
    w = phi(zs)
    num, den = phi.numerator_coeffs()
    n = phi.multiplicity
    coeffs = num - w[..., None] * den
    comp = np.zeros(w.shape + (n, n), dtype=complex)
    idx = np.arange(n - 1)
    comp[..., idx + 1, idx] = 1.0
    comp[..., :, -1] = -coeffs[..., :-1] / coeffs[..., -1:]
    roots = np.linalg.eigvals(comp)
    residual = np.abs(phi(roots) - w[..., None])
    inside = np.abs(roots) < 1.0
    bad = inside & (residual > RESIDUAL_TOL)
    if np.any(bad):
        worst = float(residual[bad].max())
        raise RootFindingError(
            f"preimage root failed verification with residual {worst:.3e} "
            f"(tolerance {RESIDUAL_TOL:g})"
        )
    valid = inside & ~is_critical(phi, roots)
    derivative_sq = np.abs(phi.derivative(roots)) ** 2
    weights = np.divide(1.0, derivative_sq, out=np.zeros(roots.shape), where=valid)
    empty = ~valid.any(axis=-1)
    if np.any(empty):
        raise RootFindingError(f"no valid preimages found for z = {zs[empty].flat[0]}")
    return np.where(valid, roots, zs[..., None]), weights


def level_set(phi: AnalyticSelfMap, z) -> LevelSet:
    """Level set of phi through z with the |phi'|^-2 averaging weights."""
    z = complex(z)
    if is_critical(phi, z):
        raise CriticalPointError(
            f"z = {z} is a critical point of the self-map; the expectation "
            "is defined off the critical set only"
        )
    points, weights = _level_sets(phi, z)
    if weights is None:
        return LevelSet(base=z, points=points, weights=np.full(len(points), 1.0 / len(points)))
    keep = weights > 0
    kept = weights[keep]
    return LevelSet(base=z, points=points[keep], weights=kept / kept.sum())


def cond_expect(phi: AnalyticSelfMap, f, z):
    """E(f)(z): the weighted level-set average of f at z."""
    return level_set(phi, z).average(f)


def cond_expect_poly(n, f: Polynomial) -> Polynomial:
    """Closed form of the expectation under z^n on polynomials.

    Averaging over the n-th root-of-unity orbit kills every coefficient whose
    power is not a multiple of n, so the result keeps exactly those terms.
    """
    if n < 1:
        raise ValueError(f"monomial exponent must be >= 1, got {n}")
    kept = [c if m % n == 0 else 0j for m, c in enumerate(f.coeffs)]
    return Polynomial.from_coeffs(kept)


def expect_polynomial(phi: AnalyticSelfMap, f: Polynomial) -> Polynomial | None:
    """E(f) in closed form: f under a map of multiplicity 1, ``cond_expect_poly``
    under z^n, and None under a Blaschke product with two or more zeros."""
    if phi.multiplicity == 1:
        return f
    if isinstance(phi, Monomial):
        return cond_expect_poly(phi.n, f)
    return None


def cond_expect_values(phi: AnalyticSelfMap, f, zs, solved=None):
    """Vectorized E(f) on an array of points (critical points excluded by caller).

    A map of multiplicity 1 passes f through. Under z^n on quadrature-rule
    nodes whose angle count n divides, f is evaluated on the nodes only and
    the orbit values are rolls of it. Everywhere else f is averaged over ``_level_sets``,
    taken in batches of at most LEVEL_SET_BATCH level-set points, so the
    temporaries of f stay small at any rule size; every value is computed
    pointwise, so it does not depend on the batch.

    Calls that pass the same dict ``solved`` share level sets: those solved
    for an array are kept in it batch by batch under the array's id, with the
    array, so the id stays its own, and are not solved again. Uniform orbits
    need no solve and are not kept.
    """
    kept = solved.get(id(zs)) if solved is not None else None
    given, zs = zs, np.asarray(zs, dtype=complex)
    if phi.multiplicity == 1:
        return np.asarray(f(zs), dtype=complex)
    shifts = ring_shifts(zs, phi.n) if isinstance(phi, Monomial) else None
    if shifts is not None:
        # On rule nodes the orbit of z is n nodes of its own ring, so the
        # orbit average is a mean of rolls of f on the nodes.
        return np.mean(rotations(np.asarray(f(zs), dtype=complex), shifts), axis=0)
    flat = zs.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    step = max(1, LEVEL_SET_BATCH // phi.multiplicity)
    for i, lo in enumerate(range(0, flat.size, step)):
        points, weights = kept[1][i] if kept else _level_sets(phi, flat[lo:lo + step])
        out[lo:lo + step] = _level_average(np.asarray(f(points), dtype=complex), weights)
        if solved is not None and weights is not None and not kept:
            solved.setdefault(id(given), (given, []))[1].append((points, weights))
    return out.reshape(zs.shape)


def _level_average(fvals, weights):
    """Average of f's values on the points of ``_level_sets`` with its weights, over the last axis."""
    if weights is None:
        return np.mean(fvals, axis=-1)
    return np.sum(weights * fvals, axis=-1) / weights.sum(axis=-1)
