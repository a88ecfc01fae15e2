"""Conditional expectation along the level sets of an analytic self-map.

For a non-constant analytic self-map phi of the disk with finite multiplicity,
the conditional expectation of f relative to the sigma-algebra generated by
phi averages f over the level set c_z = {zeta : phi(zeta) = phi(z)} away from
critical points, with weights inversely proportional to |phi'|^2:

    E(f)(z) = sum_j f(zeta_j) / |phi'(zeta_j)|^2  /  sum_j 1 / |phi'(zeta_j)|^2.

Supported map families: the identity, monomials z^n (level sets are exact
root-of-unity orbits with uniform weights), and finite Blaschke products
(each level set is its base point z, bitwise, and the n - 1 roots of the
Bezoutian that divides z out of num - phi(z) den exactly: one linear root
at 2 zeros, a quadratic at 3, companion eigenvalues only from 4 zeros on;
every root verified by its residual).
Only this module tells the families apart: ``expect_coefficients`` gives E
of a stack of polynomials in closed form, in compact rows g with E f =
g(z^n) and their stride n (1 under a map of multiplicity 1), and
``expect_polynomial`` of one polynomial (both None under a Blaschke product
with two or more zeros); ``cond_expect_values`` evaluates E on an array of
points, and ``rotation_orbit`` gives the rotations that leave the map
unchanged and E a mean over them: the roots of unity of z^n, and 1 alone
under every other map. Under a map of multiplicity 1 (the identity, z, a
one-zero Blaschke product) every level set is one point, so E is the
identity and the first three pass f through.
Level sets and their weights are formed in one place, ``_level_sets``, over
an array of points, level-major: row j holds the j-th point of every level
set. ``level_set`` reads it at one point, and ``cond_expect_values`` reads
it wherever a map of multiplicity 1 does not pass f through, adding f's
weighted rows in row order and dividing by the weight sum.
E knows nothing of how a quadrature rule lays out its nodes: of ``measures``
it reads only ``Polynomial``.

Who reads E: the test-family sweep (``carleson.test_constant``) takes E of
its polynomial members from ``expect_coefficients`` in one array call, with
the stride at which it forms its kernel series at even p under z^n, and E of
every other member
from ``cond_expect_values``, one call per member. It passes one dict to all
those calls, in which the Blaschke level sets of each node array are kept
once solved, with their weight sums, so members cost one evaluation of f
each and no further root-finding. ``operators`` asks ``expect_polynomial``
whether E of the symbol has a closed form, the CLI evaluates E of a
polynomial with it, and ``certify`` takes C2's orbit from ``rotation_orbit``.

The point z = 0 is a critical point of every monomial z^n with n >= 2; the
expectation is defined off the critical set only, and callers evaluating on
grids are expected to use grids that avoid it (the quadrature nodes do).
``is_critical`` is the test for it. ``level_set`` refuses a critical base
point, and every evaluation a Blaschke level set holding a critical point
(``CriticalPointError``); the weightless orbits of z^n are never refused, so
``cond_expect_values`` under z^n gives f(0) at 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .config import validate
from .errors import ConfigurationError, CriticalPointError, RootFindingError
from .measures import Polynomial

RESIDUAL_TOL = 1e-10
CRITICAL_TOL = 1e-12
# How near phi(z) may come to a critical value of a Blaschke product before
# ``_level_sets`` refuses z: four units of 2^-52, about the rounding of phi(z),
# a product of n factors each rounded by a few ulps. A level set through a
# critical point of order k has a (k+1)-fold root there, which that rounding
# splits by about (2^-52)^(1/(k+1)), so no root of the split cluster need be
# critical. The level set through c + 1e-7, 7e-15 from phi(c) for the zeros
# (0.5, -0.4, 0.3i), is kept.
CRITICAL_VALUE_TOL = 4 * 2.0**-52
# Level-set points per batch of ``cond_expect_values``: 1 MB of complex points.
LEVEL_SET_BATCH = 2**16


class AnalyticSelfMap:
    """Base class for the supported self-map families."""

    multiplicity: int

    def __call__(self, z):
        raise NotImplementedError

    def derivative(self, z):
        raise NotImplementedError

    def spec(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(AnalyticSelfMap):
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

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise ValueError(f"monomial exponent must be an integer >= 1, got {self.n!r}")

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
        if any(not abs(a) < 1 for a in self.zeros):
            raise ValueError("Blaschke zeros must lie in the open unit disk")

    @property
    def multiplicity(self):
        return len(self.zeros)

    def __call__(self, z):
        return self._value(*self._factors(z))

    def derivative(self, z):
        return self._slope(*self._factors(z))

    def _factors(self, z):
        """The factors a_i - z and 1 - conj(a_i) z at z, one array per zero each."""
        z = np.asarray(z, dtype=complex)
        return [a - z for a in self.zeros], [1.0 - np.conj(a) * z for a in self.zeros]

    @staticmethod
    def _value(num, den):
        """phi from its ``_factors``."""
        out = np.ones_like(num[0])
        # Temporaries go on the left: numpy reuses a large right-hand one in place
        # with the operands swapped, which can round complex products differently.
        for top, bottom in zip(num, den):
            out = top * out / bottom
        return out

    def _slope(self, num, den):
        """phi' from its ``_factors``."""
        total = np.zeros_like(num[0])
        for i, ai in enumerate(self.zeros):
            term = (abs(ai) ** 2 - 1.0) / den[i] ** 2
            for j in range(len(self.zeros)):
                if j != i:
                    term = num[j] * term / den[j]
            total = total + term
        return total

    def numerator_coeffs(self):
        """Ascending coefficients of prod(a_i - z) and prod(1 - conj(a_i) z), n + 1 each.

        ``polymul`` trims trailing zeros, which a zero at the origin leaves in
        ``den``; it is padded back to n + 1.
        """
        num = np.array([1.0 + 0j])
        den = np.array([1.0 + 0j])
        for a in self.zeros:
            num = npoly.polymul(num, np.array([a, -1.0]))
            den = npoly.polymul(den, np.array([1.0, -np.conj(a)]))
        return num, np.pad(den, (0, len(num) - len(den)))

    @cached_property
    def bezoutian(self):
        """The n x n Bezout matrix B of (num, den), read-only.

        (num(x) den(y) - num(y) den(x)) / (x - y) = sum_ij B[i, j] x^i y^j,
        so at y = z its coefficients in x are the level-set polynomial
        through z with the root z divided out.
        """
        num, den = self.numerator_coeffs()
        n = self.multiplicity
        bez = np.zeros((n, n), dtype=complex)
        # (x^k y^l - x^l y^k) / (x - y) = sum_m x^(l+m) y^(k-1-m), m < k - l.
        for k in range(n + 1):
            for l in range(k):
                c = num[k] * den[l] - num[l] * den[k]
                for m in range(k - l):
                    bez[l + m, k - 1 - m] += c
        bez.flags.writeable = False
        return bez

    @cached_property
    def critical_values(self):
        """phi at its critical points in the disk, the roots there of num' den - num den'.

        Coefficients below 2^-52 of the largest are trimmed first: a zero of
        subnormal modulus leaves a subnormal leading coefficient, which would
        overflow ``polyroots``. Read-only.
        """
        num, den = self.numerator_coeffs()
        slope = npoly.polysub(npoly.polymul(npoly.polyder(num), den),
                              npoly.polymul(num, npoly.polyder(den)))
        points = npoly.polyroots(npoly.polytrim(slope, tol=2**-52 * np.abs(slope).max()))
        values = self(points[np.abs(points) < 1.0])
        values.flags.writeable = False
        return values

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
    """Level sets of phi through the 1-d array ``zs``: (points, weights), shape (m, len(zs)).

    Row j holds the j-th point of every level set, contiguous. The weights are proportional to 1/|phi'|^2 on each level set and are not
    normalised. They are None on the uniform orbits of the identity and z^n,
    whose average is a plain mean. By the change of variables w = phi(zeta),
    these weights make E the conditional expectation of unweighted area dA:
    the integral of E(f) conj(g o phi) dA equals that of f conj(g o phi) dA
    for every g. They are not the (1-|zeta|^2)^alpha/|phi'|^2 of dA_alpha.

    A Blaschke level set through z is z itself, row 0, and the roots of the
    Bezoutian Q(zeta; z) = (num(zeta) den(z) - num(z) den(zeta)) / (zeta - z),
    of degree n - 1 in zeta. Its coefficients in zeta are polynomials in z
    with the fixed coefficients of ``BlaschkeProduct.bezoutian``, taken by
    Horner elementwise, so no rounded phi(z) enters them and no value depends
    on the size of ``zs``. Q is solved in closed form at 2 and 3 zeros (a
    linear root, and the cancellation-free quadratic) and by the eigenvalues
    of its companion matrix from 4 zeros on. Each row then takes phi and phi'
    from one set of factors, so a temporary holds one value per point. Every
    root is verified by its residual. A root outside the disk has weight 0, and its entry in
    ``points`` is the base point, so that f is only ever evaluated on the
    level set. A level set with a critical point in the disk raises
    ``CriticalPointError``, before any row: E is undefined there, not the
    mean of the rest. It is found by its value: phi(z) within
    CRITICAL_VALUE_TOL of one of ``BlaschkeProduct.critical_values``, since
    the computed roots of a multiple root are split and none of them need be
    critical; so no weight divides by |phi'|^2 = 0.
    """
    zs = np.asarray(zs, dtype=complex)
    if isinstance(phi, Identity):
        return zs[None], None
    if isinstance(phi, Monomial):
        # |phi'| is constant on |zeta| = |z|, so the weights are exactly uniform.
        return zs * rotation_orbit(phi)[:, None], None
    rows = _deflated_roots(phi.bezoutian, zs)
    factors = phi._factors(zs)
    values = phi._value(*factors)
    critical = (np.abs(values[:, None] - phi.critical_values) <= CRITICAL_VALUE_TOL).any(axis=1)
    if np.any(critical):
        raise CriticalPointError(f"the level set through z = {zs[critical][0]} holds "
                                 "a critical point of the self-map")
    points = np.empty((phi.multiplicity, len(zs)), dtype=complex)
    weights = np.zeros(points.shape)
    reached = np.zeros(len(zs), dtype=bool)
    for j, row in enumerate([zs, *rows]):
        if j:
            factors = phi._factors(row)
        inside = np.abs(row) < 1.0
        residual = np.abs(phi._value(*factors) - values)
        bad = inside & (residual > RESIDUAL_TOL)
        if np.any(bad):
            raise RootFindingError(
                f"preimage root failed verification with residual {residual[bad].max():.3e} "
                f"(tolerance {RESIDUAL_TOL:g})"
            )
        np.divide(1.0, np.abs(phi._slope(*factors)) ** 2, out=weights[j], where=inside)
        points[j] = np.where(inside, row, zs)
        reached |= inside
        del factors         # one row's factors at a time
    if not np.all(reached):
        raise RootFindingError(f"no valid preimages found for z = {zs[~reached][0]}")
    return points, weights


def _deflated_roots(bez, zs):
    """The n - 1 roots in zeta of sum_ij bez[i, j] zeta^i z^j at each z, shape (n-1, len(zs))."""
    n = bez.shape[0]
    if n == 1:
        return np.empty((0, len(zs)), dtype=complex)
    q = np.broadcast_to(bez[:, -1:], (n, len(zs)))
    for j in range(n - 2, -1, -1):
        q = q * zs + bez[:, j:j + 1]
    if n == 2:
        return (-q[:1]) / q[1:]
    if n == 3:
        a, b, c = q[2], q[1], q[0]
        d = np.sqrt(b * b - 4.0 * a * c)
        # The sign that adds b and d without cancellation; m = 0 only at a double root 0.
        m = np.where((np.conj(b) * d).real >= 0, b + d, b - d) / -2.0
        other = np.divide(c, m, out=np.zeros_like(m), where=m != 0)
        return np.stack([m / a, other])
    comp = np.zeros((len(zs), n - 1, n - 1), dtype=complex)
    idx = np.arange(n - 2)
    comp[:, idx + 1, idx] = 1.0
    comp[:, :, -1] = (-q[:-1] / q[-1]).T
    return np.linalg.eigvals(comp).T


def rotation_orbit(phi: AnalyticSelfMap):
    """The rotations w over which E is a mean: the n-th roots of unity of z^n.

    The level set of z^n through z is z times them, so E f is invariant under
    each. Under every other map E is no mean over rotations, and the orbit is
    1 alone.
    """
    n = phi.n if isinstance(phi, Monomial) else 1
    return np.exp(2j * np.pi * np.arange(n) / n)


def level_set(phi: AnalyticSelfMap, z) -> LevelSet:
    """Level set of phi through z with the |phi'|^-2 averaging weights."""
    z = complex(z)
    if is_critical(phi, z):
        raise CriticalPointError(
            f"z = {z} is a critical point of the self-map; the expectation "
            "is defined off the critical set only"
        )
    points, weights = _level_sets(phi, np.array([z]))
    if weights is None:
        return LevelSet(base=z, points=points[:, 0], weights=np.full(len(points), 1.0 / len(points)))
    keep = weights[:, 0] > 0
    kept = weights[keep, 0]
    return LevelSet(base=z, points=points[keep, 0], weights=kept / kept.sum())


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
    return Polynomial.from_coeffs(_keep_multiples(n, np.array(f.coeffs, dtype=complex)))


def _keep_multiples(n, rows):
    """``rows`` with every coefficient whose power is not a multiple of n set to zero."""
    return np.where(np.arange(rows.shape[-1]) % n == 0, rows, 0j)


def expect_coefficients(phi: AnalyticSelfMap, rows):
    """E of a stack of polynomials, one row of ascending coefficients each, in
    compact form: (rows of g, stride n) with E f = g(z^n).

    Under a map of multiplicity 1 the rows pass through with stride 1. Under
    z^n, E keeps the powers that are multiples of n (``cond_expect_poly``), so
    g takes every n-th coefficient, a view of the rows; no zero-filled row is
    formed. None under a Blaschke product with two or more zeros, where E of
    a polynomial has no closed form.
    """
    rows = np.asarray(rows, dtype=complex)
    if phi.multiplicity == 1:
        return rows, 1
    if isinstance(phi, Monomial):
        return rows[:, ::phi.n], phi.n
    return None


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

    A map of multiplicity 1 passes f through. Every other map averages f
    over ``_level_sets``, taken in batches of at most LEVEL_SET_BATCH
    level-set points, so the temporaries of f stay small at any rule size;
    every value is computed pointwise, so it does not depend on the batch.
    A uniform orbit takes the mean of f over the rows; weighted level sets
    add w_0 f_0 + w_1 f_1 + ... row by row and divide by the weight sum.

    Calls that pass the same dict ``solved`` share level sets: those solved
    for an array are kept in it batch by batch under the array's id, with the
    array, so the id stays its own, and are not solved again, each batch as
    (points, weights, weight sum). Uniform orbits need no solve and are not
    kept.
    """
    kept = solved.get(id(zs)) if solved is not None else None
    given, zs = zs, np.asarray(zs, dtype=complex)
    if phi.multiplicity == 1:
        return np.asarray(f(zs), dtype=complex)
    flat = zs.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    step = max(1, LEVEL_SET_BATCH // phi.multiplicity)
    for i, lo in enumerate(range(0, flat.size, step)):
        if kept:
            points, weights, total = kept[1][i]
        else:
            points, weights = _level_sets(phi, flat[lo:lo + step])
            total = None if weights is None else weights.sum(axis=0)
            if solved is not None and weights is not None:
                solved.setdefault(id(given), (given, []))[1].append((points, weights, total))
        fvals = np.asarray(f(points), dtype=complex)
        if weights is None:
            out[lo:lo + step] = np.mean(fvals, axis=0)
            continue
        acc = weights[0] * fvals[0]
        for w, fv in zip(weights[1:], fvals[1:]):
            acc += w * fv
        out[lo:lo + step] = acc / total
    return out.reshape(zs.shape)
