"""Kernel-power transform and three-constant Carleson certification.

The transform of a finite positive measure mu at a point a is

    Psi_a(mu) = int_D ((1 - |a|^2) / |1 - conj(a) z|^2)^t dmu(z),

with t = 2 + alpha by default. Certification computes three constants whose
simultaneous finiteness characterizes the conditional Carleson property:

    C1  sup over a test family of int |E(f)|^p dmu / ||f||^p
    C2  sup over lattice points of mu(D(a_k, r)) / ((1-|a_k|^2)/(1-tanh(r)|a_k|)^2)^(alpha+2)
    C3  sup over a boundary-refined grid of Psi_a(mu)

What each stage promises its caller:

- C3 (``psi_sup``, also ``psi_transform`` and ``psi_heatmap``): every value
  comes from ``mu.psi``, a whole grid in one call with one exact 1 - |a|^2
  per ring. Whether sup_a Psi_a is finite is decided by one exact number,
  ``Measure.boundary_exponent(t)`` (Zhu, Operator Theory in Function Spaces,
  section 1.4), which the C3 verdict, the operator criteria and ``certify``
  read; the log-log slope of the level maxima is reported and decides nothing.
- C2 (``disk_constant``): every lattice disk mass comes from one
  ``measure_of_disk`` call with the lattice's one y per ring
  (``HyperbolicLattice.y``), so equal rings tie exactly and a tie goes to the
  lowest index; given an orbit of rotations, each mass is the mean over it.
  No ``QuadConfig`` is read.
- C1 (``test_constant``): one sweep over the family; every member with an
  exact path takes it, and the rest share one quadrature routine on the
  measure's nodes (``_power_integrals``). Only ``condexp`` tells the maps
  apart or reads the stride n of E f = g(z^n).
- ``certify`` runs the three stages and reports the stage that raised.
  Nothing below it tells the self-maps apart: its symmetrized mode (z^n only)
  reaches them as two plain inputs, the rotation orbit of
  ``condexp.rotation_orbit`` for C2 and a family cut to the origin's kernel
  ring for C1.

How each stage computes (C1's three kernel paths, its polynomial members and
norms, and the disk masses of each measure type) is set out in README's
"Numerical design notes"; ``measures`` lists the Psi and disk-mass paths.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import condexp, geometry
from .condexp import AnalyticSelfMap, Identity
from .errors import ConfigurationError
from .geometry import SpaceParams
from .geometry import test_function  # noqa: F401 - re-exported; perfbench's tracer test reads it
from .lattice import HyperbolicLattice, build_lattice
from .measures import (
    DEFAULT_QUAD,
    Measure,
    Polynomial,
    QuadConfig,
    WeightedArea,
    as_fraction,
    measure_of_disk,
    poly_power,
)


# ---------------------------------------------------------------------------
# Psi transform


def _kernel_exponent(alpha, t):
    """t, by default 2 + alpha, after checking alpha and t."""
    if not alpha > -1:
        raise ConfigurationError(f"alpha must exceed -1, got {alpha}")
    t = 2.0 + alpha if t is None else float(t)
    if not t > 0:
        raise ConfigurationError(f"kernel exponent t must be positive, got {t}")
    return t


def psi_transform(mu: Measure, a, alpha, t=None):
    """Psi_a(mu) with exponent t (default 2 + alpha), evaluated by ``mu.psi``."""
    t = _kernel_exponent(alpha, t)
    return float(mu.psi(complex(a), t))


# ---------------------------------------------------------------------------
# boundary-refined sup with the verdict of the boundary exponent


# The config schema's bound on j_max (definitions/psiGrid): from j = 54 on,
# 1 - 2^-j rounds to 1.0, off the open disk.
MAX_GRID_LEVEL = 53


@dataclass(frozen=True)
class PsiGridSpec:
    """Nested grids: level j uses radii {0} + {1 - 2^-i : i <= j}, each with n_dirs angles."""

    j_min: int = 4
    j_max: int = 10
    n_dirs: int = 12

    def __post_init__(self):
        if not 1 <= self.j_min <= self.j_max:
            raise ConfigurationError(
                f"need 1 <= j_min <= j_max, got ({self.j_min}, {self.j_max})"
            )
        if self.j_max > MAX_GRID_LEVEL:
            raise ConfigurationError(
                f"j_max must be <= {MAX_GRID_LEVEL}, where the radius 1 - 2^-j_max still "
                f"rounds into the open unit disk, got {self.j_max}")
        if self.n_dirs < 1:
            raise ConfigurationError(f"n_dirs must be >= 1, got {self.n_dirs}")

    def radii(self):
        return [0.0] + [1.0 - 2.0**-i for i in range(1, self.j_max + 1)]

    def points_at_radius(self, rho):
        if rho == 0.0:
            return np.array([0.0 + 0.0j])
        return rho * np.exp(2j * np.pi * np.arange(self.n_dirs) / self.n_dirs)

    def doubled(self):
        """One level deeper, up to MAX_GRID_LEVEL, with twice the directions."""
        return replace(self, j_max=min(self.j_max + 1, MAX_GRID_LEVEL), n_dirs=2 * self.n_dirs)


@dataclass
class SupResult:
    """Sup over the finest grid, boundary diagnostics, and the exponent that decides."""

    sup: float
    argmax: complex
    level_maxima: list          # (j, max over grid of level j)
    slope: float                # log sup_j vs log(1 - |a|_max(j)), last 3 levels; reported
    exponent: float             # the measure's boundary exponent at the kernel exponent t

    @property
    def divergent(self):
        return self.exponent < 0

    @property
    def verdict(self):
        return "divergent" if self.divergent else "bounded"


def _fit_slope(level_maxima):
    tail = level_maxima[-3:]
    if len(tail) < 2 or any(v <= 0 for _, v in tail):
        return 0.0
    x = np.array([np.log(2.0**-j) for j, _ in tail])
    y = np.array([np.log(v) for _, v in tail])
    if np.allclose(y, y[0]):
        return 0.0
    return float(np.polyfit(x, y, 1)[0])


def psi_sup(mu: Measure, alpha, t=None, grid: PsiGridSpec = PsiGridSpec()) -> SupResult:
    """Sup of Psi over the nested boundary grids, in one ``mu.psi`` call.

    Every centre of the ring of radius rho takes y = (1-rho)(1+rho), exact
    to one rounding since both factors are exact at rho = 1 - 2^-j.

    The verdict is "divergent" exactly when ``mu.boundary_exponent(t)`` < 0,
    with t exact (2 + ``as_fraction(alpha)`` by default, so dA_alpha gives 0);
    the level maxima and their slope over the last three levels only
    corroborate it.
    """
    t_float = _kernel_exponent(alpha, t)
    exponent = mu.boundary_exponent(2 + as_fraction(alpha) if t is None else t)
    radii = grid.radii()
    circles = [grid.points_at_radius(rho) for rho in radii]
    centers = np.concatenate(circles)
    y = np.repeat([(1.0 - rho) * (1.0 + rho) for rho in radii], [len(pts) for pts in circles])
    values = mu.psi(centers, t_float, y)
    k = int(np.argmax(values))
    per_radius = np.split(values, np.cumsum([len(pts) for pts in circles[:-1]]))
    running = np.maximum.accumulate([vals.max() for vals in per_radius])
    level_maxima = [(j, float(running[j])) for j in range(grid.j_min, grid.j_max + 1)]
    return SupResult(sup=float(values[k]), argmax=complex(centers[k]), level_maxima=level_maxima,
                     slope=_fit_slope(level_maxima), exponent=exponent)


def psi_heatmap(mu: Measure, alpha, t=None, n_radial=24, n_angular=48, max_radius=0.96):
    """Polar grid of (Re a, Im a, Psi) rows for CSV export, in one ``mu.psi`` call,
    with y = (1-rho)(1+rho) on each ring as in ``psi_sup``."""
    t = _kernel_exponent(alpha, t)
    centers, y = [], []
    for rho in np.linspace(0.0, max_radius, n_radial):
        angles = [0.0] if rho == 0.0 else 2.0 * np.pi * np.arange(n_angular) / n_angular
        centers.extend(rho * np.exp(1j * np.atleast_1d(angles)))
        y.extend([(1.0 - rho) * (1.0 + rho)] * len(angles))
    centers = np.array(centers, dtype=complex)
    values = mu.psi(centers, t, np.array(y))
    return [(float(a.real), float(a.imag), float(v)) for a, v in zip(centers, values)]


# ---------------------------------------------------------------------------
# disk constant over a lattice


@dataclass
class DiskConstantResult:
    c2: float
    argmax_index: int


def disk_bound(a, r, alpha, y=None):
    """The comparison bound ((1-|a|^2)/(1-tanh(r)|a|)^2)^(alpha+2), elementwise on arrays.

    1 - |a|^2 is ``y``, by default ``geometry.one_minus_modulus_sq``, exact to
    an ulp at every depth, as the disk masses read it, and |a| is sqrt(1 - y),
    so that centres with one y get one bound; 1 - tanh(r)|a| >= 1 - tanh(r)
    cancels nowhere.
    """
    y = geometry.one_minus_modulus_sq(a) if y is None else y
    out = (y / (1.0 - np.tanh(r) * np.sqrt(1.0 - y)) ** 2) ** (alpha + 2.0)
    return float(out) if np.ndim(out) == 0 else out


def disk_constant(mu: Measure, alpha, r, lat: HyperbolicLattice, orbit=None) -> DiskConstantResult:
    """C2: max over lattice points of mu(D(a_k, r)) over the comparison bound.

    Given an ``orbit`` of rotations w, each disk's mass is the mean of the
    masses of D(w a_k, r) over it, which keeps the scale of the unconditional
    constant. All disk masses come from one ``measure_of_disk`` call on the
    lattice, with the orbit as a leading axis; masses and bound read the
    lattice's y, one per ring, which rotations keep.
    """
    if abs(lat.r - r) > 1e-12:
        raise ConfigurationError(
            f"lattice was built for r = {lat.r}, disk constant requested at r = {r}"
        )
    centers = lat.points[None, :]
    if orbit is not None:
        centers = np.asarray(orbit)[:, None] * centers
    masses = measure_of_disk(mu, centers, r, np.broadcast_to(lat.y, centers.shape)).mean(axis=0)
    ratios = masses / disk_bound(lat.points, r, alpha, lat.y)
    best_k = int(np.argmax(ratios))
    return DiskConstantResult(c2=float(ratios[best_k]), argmax_index=best_k)


# ---------------------------------------------------------------------------
# test-function constant


# The config schema's bound on kernel radii (definitions/family).
MAX_KERNEL_RADIUS = 0.97


@dataclass(frozen=True)
class FamilySpec:
    """Test family: unit kernel powers on rings of an a-grid plus seeded random polynomials.

    Each nonzero kernel radius rho is a ring of n_dirs centres rho * w_k with
    w_k = exp(2 pi i k / n_dirs); radius 0 is one centre, taken once.
    ``test_constant`` says how each member is integrated. ``certify``'s
    symmetrized mode uses the family with ``kernel_radii=(0.0,)``.

    Fields are checked against the config schema's bounds: radii in
    [0, 0.97], n_dirs >= 1, random_count, random_degree and seed >= 0,
    monomial_degree >= -1. The default grid stops at |a| = 0.9375, inside the
    |a| <= 0.95 where quadrature of the peaked integrands of z^n and Blaschke
    members is spectrally accurate at the default angular size. The random
    polynomial seed is fixed and echoed into reports.
    """

    kernel_radii: tuple = (0.0, 0.5, 0.75, 0.875, 0.9375)
    n_dirs: int = 8
    random_count: int = 24
    random_degree: int = 6
    seed: int = 1729
    monomial_degree: int = -1   # include z^m for 0 <= m <= this; -1 disables

    def __post_init__(self):
        object.__setattr__(self, "kernel_radii", tuple(self.kernel_radii))
        if not all(0.0 <= rho <= MAX_KERNEL_RADIUS for rho in self.kernel_radii):
            raise ConfigurationError(
                f"kernel radii must lie in [0, {MAX_KERNEL_RADIUS}], got {self.kernel_radii}"
            )
        for name, low in (("n_dirs", 1), ("random_count", 0), ("random_degree", 0),
                          ("seed", 0), ("monomial_degree", -1)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {getattr(self, name)}")

    def doubled(self):
        return replace(self, n_dirs=2 * self.n_dirs)


@dataclass
class FamilyMember:
    label: str
    func: object                 # callable z -> values
    poly: Polynomial | None      # set when the member is a polynomial
    kernel_center: complex | None = None  # set for kernel members (norm is 1 exactly)


def _kernel_centers(spec: FamilySpec):
    """Centres rho * exp(2 pi i k / n_dirs), ring by ring; radius 0 is one centre, taken once."""
    centers = []
    for rho in spec.kernel_radii:
        if rho > 0.0:
            centers.extend(rho * np.exp(2j * np.pi * np.arange(spec.n_dirs) / spec.n_dirs))
        elif 0j not in centers:
            centers.append(0j)
    return [complex(a) for a in centers]


# One entry is a few dozen short polynomials; the bound only caps what a
# long-lived process can pin.
@lru_cache(maxsize=32)
def _family_polys(spec: FamilySpec):
    """(label, polynomial) of the seeded random members, then of the monomials, as a
    tuple drawn once per spec."""
    polys = []
    rng = np.random.default_rng(spec.seed)
    for i in range(spec.random_count):
        coeffs = rng.standard_normal(spec.random_degree + 1) \
            + 1j * rng.standard_normal(spec.random_degree + 1)
        polys.append((f"poly:seed{spec.seed}#{i}", Polynomial.from_coeffs(coeffs)))
    for m in range(0, spec.monomial_degree + 1):
        polys.append((f"monomial:z^{m}", Polynomial.from_coeffs([0] * m + [1])))
    return tuple(polys)


def _stack_rows(rows):
    """The coefficient sequences ``rows`` as one 2-d array, zero-padded to the widest."""
    out = np.zeros((len(rows), max((len(row) for row in rows), default=1)), dtype=complex)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def build_family(spec: FamilySpec, params: SpaceParams):
    """Materialize the family deterministically: kernel rings first, then polynomials."""
    members = [FamilyMember(label=f"kernel:a={a.real:+.6f}{a.imag:+.6f}j",
                            func=(lambda z, _a=a: geometry.test_function(_a, z, params)),
                            poly=None, kernel_center=a)
               for a in _kernel_centers(spec)]
    members += [FamilyMember(label=label, func=poly, poly=poly)
                for label, poly in _family_polys(spec)]
    if not members:
        raise ConfigurationError("test family is empty")
    return members


@dataclass
class TestConstantResult:
    c1: float
    worst_label: str
    ratios: dict


def _power_integrals(mu: Measure, funcs, p, quad: QuadConfig):
    """int |g|^p dmu for each callable g, one quadrature on the measure's nodes each."""
    return [mu.integrate(lambda z, _g=g: np.abs(_g(z)) ** p, quad) for g in funcs]


def _expectation(phi: AnalyticSelfMap, f, solved):
    """z -> E(f)(z) by ``cond_expect_values``, keeping level sets in the sweep's ``solved``."""
    return lambda z: condexp.cond_expect_values(phi, f, z, solved)


def _composed(g, stride):
    """z -> g(z^stride)."""
    return g if stride == 1 else (lambda z: g(z ** stride))


def _poly_integrals(mu: Measure, phi: AnalyticSelfMap, rows, p, quad: QuadConfig, solved,
                    kernels=None):
    """int |E f|^p dmu for each polynomial f, one row of ascending coefficients each.

    Where ``condexp.expect_coefficients`` gives E of the rows, it gives them
    compact, E f = g(z^n), with their stride n. At even p,
    |E f|^p = |g^(p/2)(z^n)|^2, and all integrals are one
    ``mu.square_integrals`` call on the rows of g^(p/2) at stride n; given
    ``kernels``, (centres, params), the truncated kernel series at those
    centres (``geometry.kernel_series``), formed at the same stride, go first.
    Otherwise they are ``_power_integrals`` of the closed-form E f, or, where
    there is none, of ``_expectation``.
    """
    expected = condexp.expect_coefficients(phi, rows)
    if expected is None:
        funcs = [_expectation(phi, Polynomial(tuple(row)), solved) for row in rows]
        return _power_integrals(mu, funcs, p, quad)
    erows, stride = expected
    if p % 2 == 0:
        if kernels is not None:
            erows = _stack_rows([*geometry.kernel_series(*kernels, int(p) // 2, stride), *erows])
        return list(mu.square_integrals(poly_power(erows, int(p) // 2), quad, stride))
    funcs = [_composed(Polynomial(tuple(row)), stride) for row in erows]
    return _power_integrals(mu, funcs, p, quad)


# One entry is a tuple of a few dozen floats; the bound only caps what a
# long-lived process can pin.
@lru_cache(maxsize=128)
def _poly_norms(family: FamilySpec, p, alpha, quad: QuadConfig):
    """Norms of the polynomial members in the (p, alpha) space, in family order.

    ||f||^p is C1's numerator of f against dA_alpha under the identity
    (``_poly_integrals``): exact moment sums at even p, a quadrature on the
    rule otherwise.
    """
    rows = _stack_rows([poly.coeffs for _, poly in _family_polys(family)])
    powers = _poly_integrals(WeightedArea(alpha), Identity(), rows, p, quad, None)
    return tuple(float(x) ** (1.0 / p) for x in powers)


def test_constant(mu: Measure, params: SpaceParams, phi: AnalyticSelfMap = Identity(),
                  family: FamilySpec = FamilySpec(),
                  quad: QuadConfig = DEFAULT_QUAD) -> TestConstantResult:
    """C1: max over the family of int |E(f)|^p dmu / ||f||^p, in one sweep.

    Kernel members have norm 1. Under a map of multiplicity 1 they are one
    ``mu.psi`` call at t = 2 + alpha. At even p under z^n, on a measure with
    ``moment_sums``, their truncated series (``geometry.kernel_series``) join
    the polynomial rows of ``_poly_integrals``, compact at the stride that
    ``condexp.expect_coefficients`` gives. Otherwise each is
    ``_power_integrals`` of its E f from ``cond_expect_values``. Polynomial
    members go through ``_poly_integrals``, and their norms through
    ``_poly_norms``. Every ``cond_expect_values`` call shares the sweep's dict
    ``solved``, so the level sets of each node array are solved once per
    sweep. README's "Numerical design notes" describe each path. The sweep
    takes no mode; ``certify`` passes the family to sweep.
    """
    members = build_family(family, params)
    p = params.p
    solved = {}
    kernels = [member for member in members if member.kernel_center is not None]
    centers = np.array([member.kernel_center for member in kernels], dtype=complex)
    rows = _stack_rows([member.poly.coeffs for member in members[len(kernels):]])
    nums, series = [], None
    if phi.multiplicity == 1:
        nums = list(mu.psi(centers, 2.0 + params.alpha))
    elif p % 2 == 0 and mu.moment_sums and condexp.expect_coefficients(phi, rows) is not None:
        series = (centers, params)
    else:
        funcs = [_expectation(phi, member.func, solved) for member in kernels]
        nums = _power_integrals(mu, funcs, p, quad)
    norms = [1.0] * len(kernels) + list(_poly_norms(family, p, params.alpha, quad))
    nums.extend(_poly_integrals(mu, phi, rows, p, quad, solved, series))
    best = -np.inf
    worst = members[0].label
    ratios = {}
    for member, num, norm in zip(members, nums, norms):
        den = norm ** p
        if den == 0:
            raise ConfigurationError(f"family member {member.label} has zero norm")
        ratio = float(num) / den
        ratios[member.label] = ratio
        if ratio > best:
            best = ratio
            worst = member.label
    return TestConstantResult(c1=float(best), worst_label=worst, ratios=ratios)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertifyConfig:
    quad: QuadConfig = QuadConfig()
    psi_grid: PsiGridSpec = PsiGridSpec()
    family: FamilySpec = FamilySpec()
    lattice_epsilon: float = 0.01
    mode: str = "unconditional"

    def __post_init__(self):
        if self.mode not in ("unconditional", "symmetrized"):
            raise ConfigurationError(f"unknown mode '{self.mode}'")

    def doubled(self):
        return replace(self, quad=self.quad.doubled(), psi_grid=self.psi_grid.doubled(),
                       family=self.family.doubled())


@dataclass
class CarlesonReport:
    """Constants, ratios, and divergence diagnostics for one measure."""

    c1: float = np.nan
    c1_worst: str = ""
    c2: float = np.nan
    c2_normalized: float = np.nan
    c2_argmax_index: int = -1
    c3: float = np.nan
    c3_argmax: complex = 0j
    psi_slope: float = np.nan
    psi_verdict: str = ""
    boundary_exponent: float = np.nan
    ratios: dict = field(default_factory=dict)
    verdict: str = ""
    mode: str = "unconditional"
    lattice_size: int = 0
    lattice_kernel_sum: float = np.nan
    failure: dict | None = None
    config: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "constants": {
                "c1": self.c1,
                "c2": self.c2,
                "c2_normalized": self.c2_normalized,
                "c3": self.c3,
            },
            "argmax": {
                "c1_worst_member": self.c1_worst,
                "c2_lattice_index": self.c2_argmax_index,
                "c3_point": [self.c3_argmax.real, self.c3_argmax.imag],
            },
            "ratios": self.ratios,
            "divergence": {
                "psi_slope": self.psi_slope,
                "psi_verdict": self.psi_verdict,
                "boundary_exponent": self.boundary_exponent,
            },
            "lattice": {
                "size": self.lattice_size,
                "kernel_sum": self.lattice_kernel_sum,
            },
            "mode": self.mode,
            "verdict": self.verdict,
            "config": self.config,
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


# Both caches are keyed by the handful of (r, epsilon) lattices and weights a
# session uses; the bounds only cap what a long-lived process can pin.
@lru_cache(maxsize=16)
def cached_lattice(r, epsilon) -> HyperbolicLattice:
    return build_lattice(r, epsilon)


def reference_disk_constant(alpha, r, lat: HyperbolicLattice, quad=None):
    """Disk constant of the reference measure dA_alpha, used to normalize C2.

    ``quad`` is unused: disk masses read no rule, but the benchmark's warm-up
    still passes one. The cache is keyed without it, so that warm-up and
    ``certify`` share each entry.
    """
    return _reference_disk_constant(alpha, r, lat)


@lru_cache(maxsize=64)
def _reference_disk_constant(alpha, r, lat: HyperbolicLattice):
    return disk_constant(WeightedArea(alpha), alpha, r, lat).c2


def _pairwise_ratios(c1, c2n, c3):
    def ratio(x, y):
        if x > 0 and y > 0:
            return x / y
        return None
    return {
        "c1_over_c2_normalized": ratio(c1, c2n),
        "c1_over_c3": ratio(c1, c3),
        "c2_normalized_over_c3": ratio(c2n, c3),
    }


def certify(mu: Measure, params: SpaceParams, r, phi: AnalyticSelfMap = Identity(),
            config: CertifyConfig = CertifyConfig()) -> CarlesonReport:
    """Full three-constant certification with a carleson / not-carleson verdict.

    The verdict is carleson exactly when C1, C2 and C3 are finite and the
    measure's boundary exponent at t = 2 + alpha is >= 0 (``psi_sup``).
    Emits a partial report with a failure record if a stage raises.
    """
    report = CarlesonReport(mode=config.mode)
    report.config = {"p": params.p, "alpha": params.alpha, "r": r, "phi": phi.spec(),
                     "measure": mu.spec(), **asdict(config)}
    stage = "lattice"
    try:
        lat = cached_lattice(r, config.lattice_epsilon)
        report.lattice_size = lat.size
        report.lattice_kernel_sum = lat.kernel_sum()

        stage = "psi_sup"
        sup = psi_sup(mu, params.alpha, None, config.psi_grid)
        report.c3 = sup.sup
        report.c3_argmax = sup.argmax
        report.psi_slope = sup.slope
        report.psi_verdict = sup.verdict
        report.boundary_exponent = sup.exponent

        stage = "disk_constant"
        orbit = condexp.rotation_orbit(phi) if config.mode == "symmetrized" else None
        disk = disk_constant(mu, params.alpha, r, lat, orbit)
        report.c2 = disk.c2
        report.c2_argmax_index = disk.argmax_index
        ref = reference_disk_constant(params.alpha, r, lat)
        report.c2_normalized = disk.c2 / ref if ref > 0 else np.nan

        stage = "test_constant"
        family = config.family if orbit is None else replace(config.family, kernel_radii=(0.0,))
        tc = test_constant(mu, params, phi, family, config.quad)
        report.c1 = tc.c1
        report.c1_worst = tc.worst_label

        report.ratios = _pairwise_ratios(report.c1, report.c2_normalized, report.c3)
        finite = all(np.isfinite(c) for c in (report.c1, report.c2, report.c3))
        report.verdict = "carleson" if finite and not sup.divergent else "not-carleson"
    except Exception as exc:  # noqa: BLE001 - partial report carries the cause
        report.failure = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
        report.verdict = "error"
    return report
