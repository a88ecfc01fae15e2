"""The benchmark's workloads: the requests each sends, how one runs, how it is checked.

Every workload is a list of passes; the seed only permutes the bundled suite
cases, or draws the continuous parameters of the cold-mix requests, so the
work in a pass has the same shape for every seed.

carleson-suite
    The 17 bundled ``carleson_suite_cases()`` through ``certify`` at the
    default config: what ``carleson check`` and ``bergmanlab suite`` users
    run. Identity map only, so C1 (``test_constant``: ``test_function`` and
    ``Measure.integrate``) carries the time and Psi is cheap.
operator-suite
    A balanced third of the 24 bundled ``operator_suite_cases()``, one
    request being ``opnorm_estimate`` plus ``boundedness_criterion``. It is
    carried by monomial orbits (``cond_expect_values`` with n = 2, 3) and by
    the Mobius-pullback Psi path, neither of which the carleson suite runs.
    The full 24 take about 72 s on a 2-core machine, more than one run of the
    benchmark can hold; the third is the Latin square (symbol + map + alpha
    index = 0 mod 3), so each symbol, map and alpha still appears.
cold-mix
    One-shot user requests with fresh parameters: continuous alpha (every
    quadrature-rule and reference-disk lookup misses), the five (r, epsilon)
    lattices that set-up does not build, atomic / atom-sum / polyweighted /
    radial measures, Blaschke and monomial maps, p < q multiplication
    criteria, deep ``j_max`` and doubled-quadrature refinements, and radial
    measures whose verdict is known from the exponent gamma - alpha. Lattice
    builds, reference disk constants, Blaschke eigen-solves and finite-sum /
    pullback Psi take a large share of the time and the kernel family sweep a
    smaller one, so a gain that moves work into a cache or into set-up, or
    that helps only identity or monomial maps, shows here as a cost or as no
    change.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

import bergmanlab
from bergmanlab.condexp import selfmap_from_config
from bergmanlab.suite import (
    SUITE_P,
    SUITE_R,
    carleson_suite_cases,
    compare_with_expectations,
    load_expectations,
    operator_suite_cases,
)

CARLESON_SUITE = "carleson-suite"
OPERATOR_SUITE = "operator-suite"
COLD_MIX = "cold-mix"

# Seconds one pass takes on a shared 2-core x86 machine; a run makes
# round(--seconds / this) passes, at least one, so its work is fixed by
# --seconds and not by how fast the code under test is.
PASS_SECONDS = {CARLESON_SUITE: 11.5, OPERATOR_SUITE: 24.0, COLD_MIX: 20.0}

OPERATOR_CASES = (
    "u=1|phi=identity|alpha=0",
    "u=1|phi=z^3|alpha=1",
    "u=z|phi=z^3|alpha=0",
    "u=z|phi=z^2|alpha=1",
    "u=z^2|phi=z^2|alpha=0",
    "u=z^2|phi=identity|alpha=1",
    "u=1+z/2|phi=identity|alpha=0",
    "u=1+z/2|phi=z^3|alpha=1",
)

LATTICES = tuple((r, eps) for r in (0.5, 0.75, 1.0) for eps in (0.02, 0.01))
DEFAULT_LATTICE = (1.0, 0.01)   # built in set-up; the other five are built cold
DEFAULT_QUAD = (256, 512)
DOUBLED_QUAD = (512, 1024)
OPERATOR_QUAD = (128, 256)
SMALL_FAMILY = {"kernel_radii": [0.0, 0.5], "n_dirs": 4, "random_count": 4,
                "random_degree": 4}
# Multiplication criteria sweep 16 directions, not the default 12. That puts
# the two of them in the middle of a pass's latencies, so its median is
# their mean instead of jumping between unlike requests with machine noise.
MULT_DIRS = 16
FLAT_DEPTH = 2.0**-10        # Psi(dA_alpha) = 1 is checked out to 1 - |a| = 2^-10
FLAT_TOL = 1e-6

BAND_DEFECT = ("slope threshold -0.1 certifies radial weights with "
               "-0.1 < gamma - alpha < 0, which diverge")
DEEP_DEFECT = ("radial Psi loses accuracy past 1 - |a| = 2^-12, so j_max = 18 "
               "flips gamma = -0.5 to carleson")


@dataclass(frozen=True)
class Request:
    """One request: ``kind`` selects the executor, ``params`` are plain JSON data."""

    id: str
    kind: str
    params: dict
    known_defect: str | None = None


# ---------------------------------------------------------------------------
# request lists


@cache
def _carleson_cases():
    return {case.name: case for case in carleson_suite_cases()}


@cache
def _operator_cases():
    return {case.name: case for case in operator_suite_cases()}


@cache
def expectations():
    return load_expectations()


def _suite_pass(kind, names, seed, k):
    rng = np.random.default_rng([seed, k])
    return [Request(f"p{k}/{names[i]}", kind, {"case": names[i]})
            for i in rng.permutation(len(names))]


def cold_mix_pass(seed, k):
    """The k-th pass of cold-mix requests for ``seed``.

    Each pass sends the same slots in the same order (request kind, measure
    and map type, atom count, lattice); the seed draws only the continuous
    parameters. Fixing the slots keeps the cost of each request, the request
    that pays for each lattice build, and the cache contents at the largest
    allocation the same for every seed.
    """
    rng = np.random.default_rng([seed, k])

    def uniform(lo, hi):
        return float(rng.uniform(lo, hi))

    def alpha():
        return uniform(-0.4, 1.2)

    def disk_points(n, rmax):
        rho = rmax * np.sqrt(rng.random(n))
        theta = 2.0 * np.pi * rng.random(n)
        return [[float(x), float(y)] for x, y in zip(rho * np.cos(theta), rho * np.sin(theta))]

    def atomic(n):
        # Atoms stay at |z| <= 0.95, far above the deepest default Psi level.
        return {"type": "atomic", "atoms": [
            {"re": re, "im": im, "mass": uniform(0.1, 1.0)}
            for re, im in disk_points(n, 0.95)]}

    def poly(degree):
        return [[float(x), float(y)] for x, y in rng.standard_normal((degree + 1, 2))]

    def blaschke(n):
        return {"type": "blaschke", "zeros": disk_points(n, 0.6)}

    identity = {"type": "identity"}
    slots = []

    def certify(measure, a, phi, expect, lattice=DEFAULT_LATTICE, j_max=10,
                quad=DEFAULT_QUAD, known_defect=None):
        r, eps = lattice
        slots.append(("certify", {
            "measure": measure, "alpha": a, "phi": phi, "r": r, "epsilon": eps,
            "j_max": j_max, "quad": list(quad), "expect": expect}, known_defect))

    certify(atomic(8), alpha(), blaschke(2), "carleson", lattice=(0.5, 0.01))
    certify(atomic(64), alpha(), {"type": "monomial", "n": 2}, "carleson")
    certify(atomic(256), alpha(), identity, "carleson", lattice=(0.75, 0.01))
    certify({"type": "sum", "parts": [atomic(8), atomic(16), atomic(32)]}, alpha(),
            blaschke(3), "carleson")
    a = alpha()
    certify({"type": "polyweighted", "u": poly(2), "p": 2.0, "beta": a + uniform(0.0, 1.0)},
            a, identity, "carleson", lattice=(0.5, 0.02))
    for lo, hi, lattice, defect in ((0.0, 0.8, (0.75, 0.02), None),
                                    (-0.5, -0.2, DEFAULT_LATTICE, None),
                                    (-0.1, 0.0, (1.0, 0.02), BAND_DEFECT)):
        a = alpha()
        gamma = a + uniform(lo, hi)
        certify({"type": "radial", "gamma": gamma}, a, identity,
                "carleson" if gamma >= a else "not-carleson", lattice=lattice,
                known_defect=defect)
    certify({"type": "radial", "gamma": -0.5}, 0.0, identity, "not-carleson",
            j_max=18, known_defect=DEEP_DEFECT)
    certify(atomic(8), alpha(), identity, "carleson", j_max=int(rng.integers(14, 19)))
    certify(atomic(8), alpha(), identity, "carleson", quad=DOUBLED_QUAD)

    for _ in range(2):
        radii = np.append(rng.uniform(0.0, 1.0 - FLAT_DEPTH, 15), 1.0 - FLAT_DEPTH)
        theta = 2.0 * np.pi * rng.random(16)
        slots.append(("psi-flat", {
            "alpha": alpha(),
            "points": [[float(x), float(y)] for x, y in
                       zip(radii * np.cos(theta), radii * np.sin(theta))]}, None))
    for phi in (blaschke(2), blaschke(3), {"type": "monomial", "n": 3}):
        a = alpha()
        slots.append(("operator", {
            "u": poly(2), "phi": phi, "alpha": a, "beta": a + uniform(0.0, 1.0),
            "quad": list(OPERATOR_QUAD), "family": SMALL_FAMILY}, None))
    for lo, hi in ((0.0, 0.6), (-0.6, -0.3)):
        # Exponent e = beta + 2 - t of the transform decides: bounded iff e >= 0.
        a, p = alpha(), uniform(1.0, 2.0)
        q = p * uniform(1.1, 1.6)
        e = uniform(lo, hi)
        beta = (2.0 + a) * q / p - 2.0 + e
        slots.append(("multiplication", {
            "u": poly(2), "p": p, "q": q, "alpha": a, "beta": beta,
            "n_dirs": MULT_DIRS, "expect": "bounded" if e >= 0 else "divergent"}, None))

    return [Request(f"p{k}/{i:02d}-{kind}", kind, params, defect)
            for i, (kind, params, defect) in enumerate(slots)]


def requests(workload, seed, passes):
    """The full request list of a run: ``passes`` passes of ``workload``."""
    if workload == CARLESON_SUITE:
        names = list(_carleson_cases())
        return [r for k in range(passes) for r in _suite_pass("carleson-case", names, seed, k)]
    if workload == OPERATOR_SUITE:
        return [r for k in range(passes)
                for r in _suite_pass("operator-case", list(OPERATOR_CASES), seed, k)]
    if workload == COLD_MIX:
        return [r for k in range(passes) for r in cold_mix_pass(seed, k)]
    raise ValueError(f"unknown workload {workload!r}")


def passes_for(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


# ---------------------------------------------------------------------------
# execution


def plain(obj):
    """Builtin-typed copy of a result, so it serializes to fixed JSON bytes."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [plain(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _sup_result(sup):
    return {"sup": sup.sup, "argmax": sup.argmax, "slope": sup.slope,
            "verdict": sup.verdict, "level_maxima": sup.level_maxima}


def _run_carleson_case(params):
    case = _carleson_cases()[params["case"]]
    mu = bergmanlab.measure_from_config(case.measure_spec)
    report = bergmanlab.certify(mu, bergmanlab.SpaceParams(p=SUITE_P, alpha=case.alpha),
                                SUITE_R, bergmanlab.Identity(), bergmanlab.CertifyConfig())
    return report.to_dict()


def _run_operator_case(params):
    case = _operator_cases()[params["case"]]
    op = bergmanlab.WeightedCondExpOperator(
        u=bergmanlab.Polynomial.from_pairs(case.u_pairs),
        phi=selfmap_from_config(case.phi_spec),
        p=SUITE_P, alpha=case.alpha, beta=case.alpha)
    config = bergmanlab.CertifyConfig()
    norm = bergmanlab.opnorm_estimate(op, config.family, config.quad)
    crit = bergmanlab.boundedness_criterion(op, config.psi_grid, config.quad)
    return {"opnorm_lower_bound": norm.lower_bound, "opnorm_worst_member": norm.worst_label,
            "criterion_sup": crit.sup, "criterion_slope": crit.slope,
            "criterion_verdict": crit.verdict}


def _run_certify(params):
    config = bergmanlab.CertifyConfig(
        quad=bergmanlab.QuadConfig(*params["quad"]),
        psi_grid=bergmanlab.PsiGridSpec(j_max=params["j_max"]),
        lattice_epsilon=params["epsilon"])
    report = bergmanlab.certify(
        bergmanlab.measure_from_config(params["measure"]),
        bergmanlab.SpaceParams(p=2.0, alpha=params["alpha"]),
        params["r"], selfmap_from_config(params["phi"]), config)
    return report.to_dict()


def _run_psi_flat(params):
    alpha = params["alpha"]
    mu = bergmanlab.WeightedArea(alpha)
    return {"psi": [bergmanlab.psi_transform(mu, complex(x, y), alpha)
                    for x, y in params["points"]]}


def _run_operator(params):
    op = bergmanlab.WeightedCondExpOperator(
        u=bergmanlab.Polynomial.from_pairs(params["u"]),
        phi=selfmap_from_config(params["phi"]),
        p=2.0, alpha=params["alpha"], beta=params["beta"])
    quad = bergmanlab.QuadConfig(*params["quad"])
    family = bergmanlab.FamilySpec(**{k: tuple(v) if isinstance(v, list) else v
                                      for k, v in params["family"].items()})
    norm = bergmanlab.opnorm_estimate(op, family, quad)
    crit = bergmanlab.boundedness_criterion(op, bergmanlab.PsiGridSpec(), quad)
    return {"opnorm_lower_bound": norm.lower_bound, "opnorm_worst_member": norm.worst_label,
            "criterion": _sup_result(crit)}


def _run_multiplication(params):
    sup = bergmanlab.multiplication_criterion(
        bergmanlab.Polynomial.from_pairs(params["u"]), params["p"], params["q"],
        params["alpha"], params["beta"], bergmanlab.PsiGridSpec(n_dirs=params["n_dirs"]))
    return _sup_result(sup)


EXECUTORS = {
    "carleson-case": _run_carleson_case,
    "operator-case": _run_operator_case,
    "certify": _run_certify,
    "psi-flat": _run_psi_flat,
    "operator": _run_operator,
    "multiplication": _run_multiplication,
}


def execute(request):
    """Run one request and return its result as plain JSON data."""
    return plain(EXECUTORS[request.kind](request.params))


# ---------------------------------------------------------------------------
# checking


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _check_suite(section, name, result):
    expected = expectations()[section][name]
    report = {"carleson": {}, "operators": {}, "comparability": {"max_pairwise_ratio": None}}
    report[section][name] = result
    problems = compare_with_expectations(report, {section: {name: expected}})
    if result.get("verdict") == "error":
        problems.insert(0, f"certify failed: {result.get('failure')}")
    return problems


def _check_certify(params, result):
    if result["verdict"] == "error":
        return [f"certify failed: {result.get('failure')}"]
    problems = []
    if result["verdict"] != params["expect"]:
        measure = params["measure"]
        detail = (f" (gamma - alpha = {measure['gamma'] - params['alpha']:+.4f})"
                  if measure["type"] == "radial" else "")
        problems.append(f"verdict {result['verdict']!r}, expected {params['expect']!r}{detail}")
    if params["expect"] == "carleson":
        for key, value in result["constants"].items():
            if not _finite(value):
                problems.append(f"constant {key} = {value!r} is not finite")
    return problems


def _check_psi_flat(params, result):
    errors = [abs(v - 1.0) for v in result["psi"]]
    worst = int(np.argmax(errors))
    if errors[worst] <= FLAT_TOL:
        return []
    x, y = params["points"][worst]
    return [f"Psi(dA_alpha) = {result['psi'][worst]!r} at |a| = {math.hypot(x, y):.6f}, "
            f"expected 1 to {FLAT_TOL:g}"]


def _check_operator(params, result):
    problems = []
    if not (_finite(result["opnorm_lower_bound"]) and result["opnorm_lower_bound"] > 0):
        problems.append(f"opnorm lower bound {result['opnorm_lower_bound']!r} "
                        "is not finite and positive")
    if result["criterion"]["verdict"] != "bounded":
        problems.append(f"criterion verdict {result['criterion']['verdict']!r} for "
                        f"beta - alpha = {params['beta'] - params['alpha']:+.4f} >= 0, "
                        "expected 'bounded'")
    return problems


def _check_multiplication(params, result):
    if result["verdict"] == params["expect"]:
        return []
    t = (2.0 + params["alpha"]) * params["q"] / params["p"]
    return [f"verdict {result['verdict']!r}, expected {params['expect']!r} "
            f"(beta + 2 - t = {params['beta'] + 2.0 - t:+.4f})"]


def check(request, result):
    """Problems with one request's result; empty when it is right."""
    kind, params = request.kind, request.params
    if kind == "carleson-case":
        return _check_suite("carleson", params["case"], result)
    if kind == "operator-case":
        return _check_suite("operators", params["case"], result)
    if kind == "certify":
        return _check_certify(params, result)
    if kind == "psi-flat":
        return _check_psi_flat(params, result)
    if kind == "operator":
        return _check_operator(params, result)
    if kind == "multiplication":
        return _check_multiplication(params, result)
    raise ValueError(f"unknown request kind {kind!r}")
