"""Numerical laboratory for weighted Bergman spaces on the unit disk.

Disk geometry and kernels, quadrature against boundary-singular weights,
hyperbolic covering lattices, conditional expectation along level sets of
analytic self-maps, Carleson-measure certification through three equivalent
constants, and boundedness criteria for weighted expectation operators.
"""

__version__ = "0.1.0"

from .carleson import (
    CarlesonReport,
    CertifyConfig,
    FamilySpec,
    PsiGridSpec,
    certify,
    disk_constant,
    psi_sup,
    psi_transform,
    test_constant,
)
from .condexp import (
    AnalyticSelfMap,
    BlaschkeProduct,
    Identity,
    LevelSet,
    Monomial,
    cond_expect,
    cond_expect_poly,
    cond_expect_values,
    level_set,
)
from .errors import (
    BergmanLabError,
    ConfigurationError,
    CriticalPointError,
    EvaluationError,
    RootFindingError,
)
from .geometry import (
    BergmanDisk,
    EuclideanDisk,
    SpaceParams,
    as_disk_point,
    bergman_disk,
    bergman_distance,
    disk_area,
    kernel_extrema_on_disk,
    mobius,
    mobius_derivative,
    normalized_kernel,
    pseudo_distance,
    test_function,
    weighted_kernel,
)
from .lattice import (
    HyperbolicLattice,
    build_lattice,
    overlap_bound,
    overlap_count,
    verify_cover,
)
from .measures import (
    Atomic,
    GridDensity,
    Measure,
    Polynomial,
    PolyWeighted,
    QuadConfig,
    QuadratureRule,
    RadialDensity,
    SumMeasure,
    WeightedArea,
    bergman_norm,
    build_quadrature,
    integrate,
    measure_from_config,
    measure_of_disk,
)
from .operators import (
    WeightedCondExpOperator,
    apply,
    boundedness_criterion,
    multiplication_criterion,
    opnorm_estimate,
)
