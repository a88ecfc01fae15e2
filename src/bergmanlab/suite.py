"""Bundled regression suite: measures and operators with committed expectations.

The suite certifies a fixed list of measures (reference weights, radial
densities on both sides of the boundedness threshold, small atomic measures)
and sweeps a fixed list of weighted expectation operators. Verdicts and
constants are compared against the committed expectations file; the
comparability statistic M is the largest pairwise ratio among the three
certification constants across the cases certified as Carleson.

Everything here is deterministic for a fixed seed, so two runs with the same
configuration produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .carleson import CertifyConfig, certify
from .condexp import Identity, selfmap_from_config
from .geometry import SpaceParams
from .measures import Polynomial, measure_from_config
from .operators import WeightedCondExpOperator, boundedness_criterion, opnorm_estimate

SUITE_ALPHAS = (-0.5, 0.0, 1.0)
SUITE_P = 2.0
SUITE_R = 1.0

EXPECTATIONS_RESOURCE = "suite_expected.json"


@dataclass(frozen=True)
class MeasureCase:
    name: str
    measure_spec: dict
    alpha: float
    expected_kind: str      # "carleson" | "not-carleson"


@dataclass(frozen=True)
class OperatorCase:
    name: str
    u_pairs: tuple
    phi_spec: dict
    alpha: float


def carleson_suite_cases():
    cases = []
    for alpha in SUITE_ALPHAS:
        tag = f"alpha={alpha:g}"
        cases.append(MeasureCase(
            f"area[{tag}]", {"type": "area", "alpha": alpha}, alpha, "carleson"))
        cases.append(MeasureCase(
            f"radial-gamma=alpha[{tag}]", {"type": "radial", "gamma": alpha},
            alpha, "carleson"))
        cases.append(MeasureCase(
            f"radial-gamma=alpha+1[{tag}]", {"type": "radial", "gamma": alpha + 1.0},
            alpha, "carleson"))
        cases.append(MeasureCase(
            f"atom-0.9[{tag}]",
            {"type": "atomic", "atoms": [{"re": 0.9, "im": 0.0, "mass": 1.0}]},
            alpha, "carleson"))
        cases.append(MeasureCase(
            f"atoms-0.5+0.9[{tag}]",
            {"type": "atomic", "atoms": [
                {"re": 0.5, "im": 0.0, "mass": 0.6},
                {"re": 0.9, "im": 0.0, "mass": 0.4},
            ]},
            alpha, "carleson"))
        if alpha - 0.5 > -1.0:
            # gamma = alpha - 0.5 is below the boundedness threshold but the
            # density must stay integrable, which rules out alpha = -0.5.
            cases.append(MeasureCase(
                f"radial-gamma=alpha-0.5[{tag}]",
                {"type": "radial", "gamma": alpha - 0.5}, alpha, "not-carleson"))
    return cases


def operator_suite_cases():
    symbols = {
        "u=1": ((1.0, 0.0),),
        "u=z": ((0.0, 0.0), (1.0, 0.0)),
        "u=z^2": ((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)),
        "u=1+z/2": ((1.0, 0.0), (0.5, 0.0)),
    }
    maps = {
        "identity": {"type": "identity"},
        "z^2": {"type": "monomial", "n": 2},
        "z^3": {"type": "monomial", "n": 3},
    }
    cases = []
    for uname, pairs in symbols.items():
        for mname, mspec in maps.items():
            for alpha in (0.0, 1.0):
                cases.append(OperatorCase(
                    f"{uname}|phi={mname}|alpha={alpha:g}",
                    tuple(pairs), mspec, alpha))
    return cases


def _max_pairwise_ratio(values):
    vals = [v for v in values if v is not None and np.isfinite(v) and v > 0]
    if len(vals) < 2:
        return None
    return float(max(vals) / min(vals))


def run_carleson_suite(config: CertifyConfig = CertifyConfig()):
    """Certify every bundled measure; returns (per-case dict, comparability M)."""
    out = {}
    worst_ratio = 0.0
    for case in carleson_suite_cases():
        mu = measure_from_config(case.measure_spec)
        params = SpaceParams(p=SUITE_P, alpha=case.alpha)
        report = certify(mu, params, SUITE_R, Identity(), config)
        entry = report.to_dict()
        entry["expected_kind"] = case.expected_kind
        out[case.name] = entry
        if report.verdict == "carleson":
            m = _max_pairwise_ratio(
                [report.c1, report.c2_normalized, report.c3])
            if m is not None:
                worst_ratio = max(worst_ratio, m)
    return out, worst_ratio


def run_operator_suite(config: CertifyConfig = CertifyConfig()):
    out = {}
    for case in operator_suite_cases():
        op = WeightedCondExpOperator(
            u=Polynomial.from_pairs(case.u_pairs),
            phi=selfmap_from_config(case.phi_spec),
            p=SUITE_P, alpha=case.alpha, beta=case.alpha,
        )
        norm = opnorm_estimate(op, config.family, config.quad)
        crit = boundedness_criterion(op, config.psi_grid)
        out[case.name] = {
            "opnorm_lower_bound": norm.lower_bound,
            "opnorm_worst_member": norm.worst_label,
            "criterion_sup": crit.sup,
            "criterion_slope": crit.slope,
            "criterion_verdict": crit.verdict,
            "norm_p_over_criterion": (norm.lower_bound ** SUITE_P / crit.sup
                                      if crit.sup > 0 else None),
        }
    return out


def run_suite(config: CertifyConfig = CertifyConfig()):
    """The full bundled suite as one deterministic report dict."""
    carleson_results, max_ratio = run_carleson_suite(config)
    operator_results = run_operator_suite(config)
    return {
        "carleson": carleson_results,
        "operators": operator_results,
        "comparability": {"max_pairwise_ratio": max_ratio},
    }


def load_expectations():
    path = resources.files("bergmanlab").joinpath("data", EXPECTATIONS_RESOURCE)
    with path.open() as fh:
        return json.load(fh)


def compare_with_expectations(report, expected, rel_tol=1e-6):
    """List of human-readable mismatch strings (empty when the suite matches)."""
    mismatches = []

    def close(a, b):
        if a is None or b is None:
            return a is None and b is None
        if not (np.isfinite(a) and np.isfinite(b)):
            return (np.isfinite(a) == np.isfinite(b))
        return abs(a - b) <= rel_tol * max(1.0, abs(a), abs(b))

    for name, exp in expected.get("carleson", {}).items():
        got = report["carleson"].get(name)
        if got is None:
            mismatches.append(f"carleson case '{name}' missing from run")
            continue
        if got["verdict"] != exp["verdict"]:
            mismatches.append(
                f"carleson case '{name}': verdict {got['verdict']!r} != expected {exp['verdict']!r}")
        for key in ("c1", "c2", "c2_normalized", "c3"):
            if not close(got["constants"][key], exp["constants"][key]):
                mismatches.append(
                    f"carleson case '{name}': {key} = {got['constants'][key]!r} "
                    f"!= expected {exp['constants'][key]!r}")
    for name, exp in expected.get("operators", {}).items():
        got = report["operators"].get(name)
        if got is None:
            mismatches.append(f"operator case '{name}' missing from run")
            continue
        if got["criterion_verdict"] != exp["criterion_verdict"]:
            mismatches.append(
                f"operator case '{name}': verdict {got['criterion_verdict']!r} "
                f"!= expected {exp['criterion_verdict']!r}")
        for key in ("opnorm_lower_bound", "criterion_sup"):
            if not close(got[key], exp[key]):
                mismatches.append(
                    f"operator case '{name}': {key} = {got[key]!r} != expected {exp[key]!r}")
    exp_ratio = expected.get("comparability", {}).get("max_pairwise_ratio")
    got_ratio = report["comparability"]["max_pairwise_ratio"]
    if exp_ratio is not None and not close(got_ratio, exp_ratio):
        mismatches.append(
            f"comparability max ratio {got_ratio!r} != expected {exp_ratio!r}")
    return mismatches

