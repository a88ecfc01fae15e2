"""Command-line interface: config ingestion, orchestration, JSON/CSV reports.

Each command's config document is validated once, as a whole, against its
node of the packaged schema (``properties/<command>``), and the normalised
copy feeds ``build_measure``, ``build_selfmap`` and the library dataclasses
and functions, whose defaults fill absent fields. Conditions across fields
that the schema cannot state are checked as these are built, and their
errors carry a pointer too (``/grid``, ``/measure/values``). The report echoes
the document as read. ``--seed`` is registered on ``carleson check``,
``opnorm`` and ``suite``, ``--mode`` on ``carleson check``, and
``--grid-levels`` on every command with a boundary grid; each overrides the
document's value.

Exit codes: 0 completed, 2 completed with a divergent or not-carleson
verdict, 1 error (malformed config, numeric failure, regression mismatch).
Reports are deterministic for a fixed config and seed: they carry no
timestamps and all grids and random draws are seeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .carleson import CertifyConfig, FamilySpec, PsiGridSpec, certify, psi_heatmap, psi_sup
from .condexp import Identity, build_selfmap, cond_expect_values, expect_polynomial, \
    is_critical
from .config import validate
from .errors import BergmanLabError, ConfigurationError
from .geometry import SpaceParams, as_disk_point, bergman_disk, bergman_distance, \
    disk_area, kernel_extrema_on_disk, mobius, mobius_derivative, normalized_kernel, \
    pseudo_distance, test_function, weighted_kernel
from .lattice import build_lattice, verify_cover
from .measures import Polynomial, QuadConfig, build_measure
from .operators import WeightedCondExpOperator, boundedness_criterion, \
    multiplication_criterion, opnorm_estimate
from .suite import compare_with_expectations, load_expectations, run_suite


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _report_envelope(command, config_echo, payload):
    return {
        "tool": {"name": "bergmanlab", "version": __version__},
        "command": command,
        "config": _jsonify(config_echo),
        "report": _jsonify(payload),
    }


def _emit(report, out_dir, filename):
    text = json.dumps(report, indent=2)
    if out_dir is None:
        print(text)
        return None
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / filename
    target.write_text(text + "\n")
    return target


def _read_config(args, command):
    """The command's config document as read, and its validated normalised copy."""
    if args.config is None:
        raise ConfigurationError("this command requires --config PATH")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    return cfg, validate(cfg, f"properties/{command}")


def _certify_config(doc, grid="psi_grid"):
    """The grids, family and mode of a validated document; absent fields keep the defaults.

    A top-level ``seed`` replaces the family's.
    """
    family = dict(doc.get("family", {}))
    if "seed" in doc:
        family["seed"] = doc["seed"]
    return CertifyConfig(quad=_build(QuadConfig, doc.get("quad", {}), "/quad"),
                         psi_grid=_build(PsiGridSpec, doc.get(grid, {}), f"/{grid}"),
                         family=_build(FamilySpec, family, "/family"),
                         **{k: doc[k] for k in ("lattice_epsilon", "mode") if k in doc})


def _build(cls, fields, pointer):
    """``cls(**fields)``; a failed check across fields, which the schema cannot
    state, points at ``pointer``."""
    try:
        return cls(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(str(exc), pointer) from exc


def _with_flags(config, args, grid=None):
    """``config`` with the --grid-levels, --seed and --mode flags the subcommand was given.

    A --grid-levels value that the document's grid rejects fails naming the
    flag, and the grid's field ``grid`` when the command reads a document; a
    rejected --seed fails naming the flag.
    """
    flags = vars(args)
    if "grid_levels" in flags:
        levels = flags["grid_levels"]
        try:
            config = replace(config, psi_grid=replace(config.psi_grid, j_max=levels))
        except ConfigurationError as exc:
            raise ConfigurationError(f"--grid-levels {levels}: {exc}",
                                     None if grid is None else f"/{grid}") from exc
    if "seed" in flags:
        seed = flags["seed"]
        try:
            config = replace(config, family=replace(config.family, seed=seed))
        except ConfigurationError as exc:
            raise ConfigurationError(f"--seed {seed}: {exc}") from exc
    if "mode" in flags:
        config = replace(config, mode=flags["mode"])
    return config


def _sup_payload(result):
    return {
        "sup": result.sup,
        "argmax": result.argmax,
        "slope": result.slope,
        "verdict": result.verdict,
        "boundary_exponent": result.exponent,
        "level_maxima": [[j, v] for j, v in result.level_maxima],
    }


# ---------------------------------------------------------------------------
# subcommands


def _point_flag(flag, text):
    """The disk point that the flag's 're,im' names."""
    try:
        x, y = map(float, text.split(","))
    except ValueError:
        raise ConfigurationError(f"{flag} {text!r}: expected a point as 're,im'") from None
    return as_disk_point(complex(x, y))


def _number_flag(flag, text):
    """The finite number that the flag's text names."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ConfigurationError(f"{flag} {text!r}: expected a finite number")
    return value


def _cmd_geom(args):
    a = _point_flag("--a", args.a)
    z = _point_flag("--z", args.z)
    r = _number_flag("--r", args.r)
    alpha = _number_flag("--alpha", args.alpha)
    p = _number_flag("--p", args.p)
    disk = bergman_disk(a, r)
    inf_k, sup_k = kernel_extrema_on_disk(a, r)
    payload = {
        "mobius": mobius(a, z),
        "mobius_derivative": mobius_derivative(a, z),
        "pseudo_distance": pseudo_distance(a, z),
        "bergman_distance": bergman_distance(a, z),
        "disk": {"center": disk.center, "radius": disk.radius, "area": disk_area(a, r)},
        "kernel_extrema": {"inf": inf_k, "sup": sup_k},
        "weighted_kernel": weighted_kernel(a, z, alpha),
        "normalized_kernel": normalized_kernel(a, z),
        "test_function": test_function(a, z, SpaceParams(p=p, alpha=alpha)),
    }
    echo = {"a": a, "z": z, "r": r, "alpha": alpha, "p": p}
    _emit(_report_envelope("geom", echo, payload), args.out, "geom_report.json")
    return 0


def _cmd_lattice(args):
    r = _number_flag("--r", args.r)
    epsilon = _number_flag("--epsilon", args.epsilon)
    samples = _number_flag("--samples", args.samples)
    if not (samples.is_integer() and samples >= 1):
        raise ConfigurationError(f"--samples {args.samples!r}: expected an integer of at least 1")
    samples = int(samples)
    lat = build_lattice(r, epsilon)
    cover = verify_cover(lat, samples)
    payload = {
        "count": lat.size,
        "min_separation": lat.min_separation(),
        "separation_target": lat.r / 2.0,
        "overlap_bound_N": lat.N,
        "cover": {
            "samples": cover.samples,
            "uncovered_count": len(cover.uncovered),
            "max_min_distance": cover.max_min_distance,
        },
        "kernel_sum": lat.kernel_sum(),
        "points": [{"re": p.real, "im": p.imag} for p in lat.points],
    }
    echo = {"r": lat.r, "epsilon": lat.epsilon, "samples": samples}
    _emit(_report_envelope("lattice", echo, payload), args.out, "lattice_report.json")
    return 0 if cover.covered else 2


def _cmd_condexp(args):
    cfg, doc = _read_config(args, "condexp")
    phi = build_selfmap(doc["map"], "/map")
    f = Polynomial.from_pairs(doc["f"])
    poly = expect_polynomial(phi, f)
    payload = {"polynomial": None if poly is None else poly.to_pairs()}
    if "points" in doc:
        pts = np.array([complex(re, im) for re, im in doc["points"]])
        as_disk_point(pts)
        critical = np.flatnonzero(is_critical(phi, pts))
        if critical.size:
            i = critical[0]
            raise ConfigurationError(
                f"z = {pts[i]} is a critical point of the self-map; the expectation "
                "is defined off the critical set only", f"/points/{i}")
        vals = cond_expect_values(phi, f, pts)
        payload["values"] = [[v.real, v.imag] for v in vals]
    _emit(_report_envelope("condexp", cfg, payload), args.out, "condexp_report.json")
    return 0


def _cmd_psi(args):
    cfg, doc = _read_config(args, "psi")
    mu = build_measure(doc["measure"])
    config = _with_flags(_certify_config(doc, grid="grid"), args, "grid")
    result = psi_sup(mu, doc["alpha"], doc.get("t"), config.psi_grid)
    payload = _sup_payload(result)
    if "heatmap" in doc:
        rows = psi_heatmap(mu, doc["alpha"], doc.get("t"), **doc["heatmap"])
        payload["heatmap_rows"] = len(rows)
        if args.out is not None:
            path = Path(args.out)
            path.mkdir(parents=True, exist_ok=True)
            with open(path / "psi_heatmap.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["re_a", "im_a", "psi"])
                writer.writerows(rows)
            payload["heatmap_csv"] = "psi_heatmap.csv"
    _emit(_report_envelope("psi", cfg, payload), args.out, "psi_report.json")
    return 2 if result.divergent else 0


def _cmd_carleson(args):
    cfg, doc = _read_config(args, "carleson_check")
    mu = build_measure(doc["measure"])
    phi = build_selfmap(doc["phi"]) if "phi" in doc else Identity()
    config = _with_flags(_certify_config(doc), args, "psi_grid")
    report = certify(mu, SpaceParams(p=doc["p"], alpha=doc["alpha"]), doc["r"], phi, config)
    envelope = _report_envelope("carleson check", cfg, report.to_dict())
    _emit(envelope, args.out, "carleson_report.json")
    if report.verdict == "error":
        print(f"certification failed at stage {report.failure['stage']}: "
              f"{report.failure['message']}", file=sys.stderr)
        return 1
    return 0 if report.verdict == "carleson" else 2


def _cmd_opnorm(args):
    cfg, doc = _read_config(args, "opnorm")
    op = WeightedCondExpOperator(
        u=Polynomial.from_pairs(doc["u"]),
        phi=build_selfmap(doc["phi"]) if "phi" in doc else Identity(),
        p=doc["p"], alpha=doc["alpha"], beta=doc["beta"],
    )
    config = _with_flags(_certify_config(doc, grid="grid"), args, "grid")
    norm = opnorm_estimate(op, config.family, config.quad)
    crit = boundedness_criterion(op, config.psi_grid)
    payload = {
        "opnorm_lower_bound": norm.lower_bound,
        "worst_member": norm.worst_label,
        "criterion_sup": crit.sup,
        "criterion_slope": crit.slope,
        "criterion_verdict": crit.verdict,
        "expectation_analytic": op.expectation_analytic,
    }
    _emit(_report_envelope("opnorm", cfg, payload), args.out, "opnorm_report.json")
    return 2 if crit.divergent else 0


def _cmd_mult_criterion(args):
    cfg, doc = _read_config(args, "mult_criterion")
    config = _with_flags(_certify_config(doc, grid="grid"), args, "grid")
    result = multiplication_criterion(Polynomial.from_pairs(doc["u"]), doc["p"], doc["q"],
                                      doc["alpha"], doc["beta"], config.psi_grid)
    _emit(_report_envelope("mult-criterion", cfg, _sup_payload(result)), args.out,
          "mult_criterion_report.json")
    return 2 if result.divergent else 0


def _cmd_suite(args):
    config = _with_flags(CertifyConfig(), args)
    report = run_suite(config)
    echo = {
        "seed": config.family.seed,
        "psi_j_max": config.psi_grid.j_max,
        "quad": {"n_radial": config.quad.n_radial, "n_angular": config.quad.n_angular},
    }
    envelope = _report_envelope("suite", echo, report)
    _emit(envelope, args.out, "suite_report.json")
    if args.no_compare:
        return 0
    mismatches = compare_with_expectations(report, load_expectations())
    for line in mismatches:
        print(f"regression mismatch: {line}", file=sys.stderr)
    return 1 if mismatches else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bergmanlab",
        description="Numerical laboratory for weighted Bergman spaces on the unit disk",
    )
    parser.add_argument("--version", action="version", version=f"bergmanlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "seed": {"type": int, "help": "override the family seed"},
        "grid-levels": {"type": int,
                        "help": "override the deepest boundary grid level J (at most 53)"},
        "mode": {"choices": ["unconditional", "symmetrized"]},
    }

    def common(p, *names, config=True):
        if config:
            p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory for reports (default: stdout)")
        for name in names:
            p.add_argument(f"--{name}", default=argparse.SUPPRESS, **flags[name])

    p_geom = sub.add_parser("geom", help="closed-form geometry report for (a, z, r)")
    p_geom.add_argument("--a", required=True, help="point a as 're,im'")
    p_geom.add_argument("--z", required=True, help="point z as 're,im'")
    p_geom.add_argument("--r", default="1.0", help="metric radius")
    p_geom.add_argument("--alpha", default="0.0")
    p_geom.add_argument("--p", default="2.0")
    common(p_geom, config=False)
    p_geom.set_defaults(func=_cmd_geom)

    p_lat = sub.add_parser("lattice", help="build and verify a covering lattice")
    p_lat.add_argument("--r", default="1.0")
    p_lat.add_argument("--epsilon", default="0.01")
    p_lat.add_argument("--samples", default="100000", help="cover-check sample count")
    common(p_lat, config=False)
    p_lat.set_defaults(func=_cmd_lattice)

    p_ce = sub.add_parser("condexp", help="conditional expectation of a polynomial")
    common(p_ce)
    p_ce.set_defaults(func=_cmd_condexp)

    p_psi = sub.add_parser("psi", help="kernel-power transform sup and heatmap")
    common(p_psi, "grid-levels")
    p_psi.set_defaults(func=_cmd_psi)

    p_car = sub.add_parser("carleson", help="three-constant certification")
    p_car.add_argument("action", choices=["check"])
    common(p_car, "seed", "grid-levels", "mode")
    p_car.set_defaults(func=_cmd_carleson)

    p_op = sub.add_parser("opnorm", help="operator norm lower bound and criterion")
    common(p_op, "seed", "grid-levels")
    p_op.set_defaults(func=_cmd_opnorm)

    p_mc = sub.add_parser("mult-criterion", help="two-space multiplication criterion")
    common(p_mc, "grid-levels")
    p_mc.set_defaults(func=_cmd_mult_criterion)

    p_suite = sub.add_parser("suite", help="bundled regression suite")
    p_suite.add_argument("--no-compare", action="store_true",
                         help="skip comparison against committed expectations")
    common(p_suite, "seed", "grid-levels", config=False)
    p_suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BergmanLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
