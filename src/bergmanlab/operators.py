"""Weighted conditional-expectation operators.

The operator T = M_u E multiplies the conditional expectation of f by an
analytic symbol u: T(f)(z) = u(z) E(f)(z). Its boundedness from the (p, alpha)
space into the (p, beta) space is equivalent to boundedness in a of the
kernel-power transform of the measure |u|^p dA_beta, which is what
``boundedness_criterion`` evaluates; ``opnorm_estimate`` produces a certified
lower bound on the operator norm by sweeping a test family. The true norm is
not claimed: the two sides agree only up to constants, and the pair is
reported together.

The multiplication operator M_u between spaces with different integrability
exponents p <= q has the analogous criterion with kernel exponent
(2 + alpha) q / p against |u|^q dA_beta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .carleson import FamilySpec, PsiGridSpec, SupResult, psi_sup, test_constant
from .condexp import AnalyticSelfMap, cond_expect, expect_polynomial
from .errors import ConfigurationError
from .geometry import SpaceParams
from .measures import DEFAULT_QUAD, Polynomial, PolyWeighted, QuadConfig, as_fraction


@dataclass(frozen=True)
class WeightedCondExpOperator:
    """T = M_u E acting from the (p, alpha) space into the (p, beta) space."""

    u: Polynomial
    phi: AnalyticSelfMap
    p: float
    alpha: float
    beta: float

    def __post_init__(self):
        SpaceParams(p=self.p, alpha=self.alpha)
        SpaceParams(p=self.p, alpha=self.beta)

    @property
    def source(self):
        return SpaceParams(p=self.p, alpha=self.alpha)

    @property
    def target(self):
        return SpaceParams(p=self.p, alpha=self.beta)

    @property
    def expectation_analytic(self):
        """Whether E maps the polynomial test family to analytic functions.

        True where ``expect_polynomial`` has a closed form (maps of multiplicity
        1, z^n); for Blaschke products with two or more zeros the expectation
        need not be analytic and output carries a flag.
        """
        return expect_polynomial(self.phi, self.u) is not None

    def symbol_measure(self):
        """The measure |u|^p dA_beta whose transform controls boundedness."""
        return PolyWeighted(self.u, self.p, self.beta)

    def spec(self):
        return {"u": self.u.to_pairs(), "phi": self.phi.spec(),
                "p": self.p, "alpha": self.alpha, "beta": self.beta}


def apply(op: WeightedCondExpOperator, f, z):
    """T(f)(z) = u(z) E(f)(z); linear in f."""
    z = complex(z)
    return complex(op.u(z)) * cond_expect(op.phi, f, z)


@dataclass
class OpNormResult:
    lower_bound: float
    worst_label: str
    ratios: dict


def opnorm_estimate(op: WeightedCondExpOperator, family: FamilySpec = FamilySpec(),
                    quad: QuadConfig = DEFAULT_QUAD) -> OpNormResult:
    """Certified lower bound sup_family ||u E(f)||_{p,beta} / ||f||_{p,alpha}.

    ||u E(f)||_{p,beta}^p is the integral of |E(f)|^p against |u|^p dA_beta, so
    this is the p-th root of the test constant of the symbol measure.
    """
    if op.u.is_zero:
        return OpNormResult(lower_bound=0.0, worst_label="", ratios={})
    tc = test_constant(op.symbol_measure(), op.source, op.phi, family, quad)
    root = 1.0 / op.p
    return OpNormResult(lower_bound=tc.c1**root, worst_label=tc.worst_label,
                        ratios={label: ratio**root for label, ratio in tc.ratios.items()})


def boundedness_criterion(op: WeightedCondExpOperator,
                          grid: PsiGridSpec = PsiGridSpec(), quad=None) -> SupResult:
    """Transform criterion: sup_a Psi_a(|u|^p dA_beta) with exponent 2 + alpha.

    Bounded exactly when beta >= alpha or u = 0 (``PolyWeighted.boundary_exponent``).
    ``quad`` is unused: Psi reads no rule, but the benchmark still passes one.
    """
    return psi_sup(op.symbol_measure(), op.alpha, None, grid)


def multiplication_criterion(u: Polynomial, p, q, alpha, beta,
                             grid: PsiGridSpec = PsiGridSpec()) -> SupResult:
    """Criterion for M_u from the (p, alpha) into the (q, beta) space.

    Evaluates sup_a of the transform of |u|^q dA_beta with kernel exponent
    t = (2 + alpha) q / p, exact as a fraction and rounded once for the
    evaluation; the sup is bounded, and M_u with it, exactly when
    beta + 2 - t >= 0 or u = 0 (``PolyWeighted.boundary_exponent``).
    """
    if not 0 < p <= q:
        raise ConfigurationError(f"need 0 < p <= q, got p={p}, q={q}")
    SpaceParams(p=p, alpha=alpha)
    SpaceParams(p=q, alpha=beta)
    t = (2 + as_fraction(alpha)) * as_fraction(q) / as_fraction(p)
    return psi_sup(PolyWeighted(u, q, beta), alpha, t, grid)
