"""Command-line interface: config ingestion, orchestration, JSON/CSV reports.

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
from .condexp import Monomial, cond_expect_poly, cond_expect_values, selfmap_from_config
from .errors import BergmanLabError, ConfigurationError
from .geometry import SpaceParams, as_disk_point, bergman_disk, bergman_distance, \
    disk_area, kernel_extrema_on_disk, mobius, mobius_derivative, normalized_kernel, \
    pseudo_distance, test_function, weighted_kernel
from .lattice import build_lattice, verify_cover
from .measures import Polynomial, QuadConfig, measure_from_config
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


def _load_config(path):
    if path is None:
        raise ConfigurationError("this command requires --config PATH")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc


def _check_fields(cfg, known, pointer=""):
    if not isinstance(cfg, dict):
        raise ConfigurationError("expected an object", pointer or "/")
    for key in cfg:
        if key not in known:
            raise ConfigurationError(f"unknown field '{key}'", f"{pointer}/{key}")


def _number(cfg, key, pointer, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigurationError(f"missing required field '{key}'", f"{pointer}/{key}")
        return default
    val = cfg[key]
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigurationError(f"field '{key}' must be a number", f"{pointer}/{key}")
    return float(val)


def _pair(cfg, key, pointer, required=True):
    if key not in cfg:
        if required:
            raise ConfigurationError(f"missing required field '{key}'", f"{pointer}/{key}")
        return None
    val = cfg[key]
    if (not isinstance(val, (list, tuple))) or len(val) != 2:
        raise ConfigurationError(f"field '{key}' must be a [re, im] pair", f"{pointer}/{key}")
    return complex(val[0], val[1])


def _quad_from(cfg, pointer):
    if cfg is None:
        return QuadConfig()
    _check_fields(cfg, {"n_radial", "n_angular"}, pointer)
    return QuadConfig(int(_number(cfg, "n_radial", pointer, 256)),
                      int(_number(cfg, "n_angular", pointer, 512)))


def _grid_from(cfg, pointer, grid_levels=None):
    grid = PsiGridSpec()
    if cfg is not None:
        _check_fields(cfg, {"j_min", "j_max", "n_dirs"}, pointer)
        grid = PsiGridSpec(int(_number(cfg, "j_min", pointer, 4)),
                           int(_number(cfg, "j_max", pointer, 10)),
                           int(_number(cfg, "n_dirs", pointer, 12)))
    if grid_levels is not None:
        grid = replace(grid, j_max=int(grid_levels))
    return grid


def _family_from(cfg, pointer, seed=None):
    fam = FamilySpec()
    if cfg is not None:
        _check_fields(cfg, {"kernel_radii", "n_dirs", "random_count",
                            "random_degree", "seed", "monomial_degree"}, pointer)
        fam = FamilySpec(
            kernel_radii=tuple(cfg.get("kernel_radii", fam.kernel_radii)),
            n_dirs=int(cfg.get("n_dirs", fam.n_dirs)),
            random_count=int(cfg.get("random_count", fam.random_count)),
            random_degree=int(cfg.get("random_degree", fam.random_degree)),
            seed=int(cfg.get("seed", fam.seed)),
            monomial_degree=int(cfg.get("monomial_degree", fam.monomial_degree)),
        )
    if seed is not None:
        fam = replace(fam, seed=int(seed))
    return fam


# ---------------------------------------------------------------------------
# subcommands


def _cmd_geom(args):
    a = as_disk_point(complex(*map(float, args.a.split(","))))
    z = as_disk_point(complex(*map(float, args.z.split(","))))
    r = float(args.r)
    alpha = float(args.alpha)
    p = float(args.p)
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
    lat = build_lattice(float(args.r), float(args.epsilon))
    cover = verify_cover(lat, int(args.samples))
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
    echo = {"r": lat.r, "epsilon": lat.epsilon, "samples": int(args.samples)}
    _emit(_report_envelope("lattice", echo, payload), args.out, "lattice_report.json")
    return 0 if cover.covered else 2


def _cmd_condexp(args):
    cfg = _load_config(args.config)
    _check_fields(cfg, {"map", "f", "points"}, "")
    phi = selfmap_from_config(cfg.get("map"), "/map")
    if "f" not in cfg:
        raise ConfigurationError("missing required field 'f'", "/f")
    f = Polynomial.from_pairs(cfg["f"])
    payload = {}
    if isinstance(phi, Monomial):
        payload["polynomial"] = cond_expect_poly(phi.n, f).to_pairs()
    if "points" in cfg:
        pts = np.array([complex(re, im) for re, im in cfg["points"]])
        as_disk_point(pts)
        vals = cond_expect_values(phi, f, pts)
        payload["values"] = [[v.real, v.imag] for v in vals]
    if not payload:
        payload["polynomial"] = f.to_pairs() if phi.spec()["type"] == "identity" else None
    _emit(_report_envelope("condexp", cfg, payload), args.out, "condexp_report.json")
    return 0


def _cmd_psi(args):
    cfg = _load_config(args.config)
    _check_fields(cfg, {"measure", "alpha", "t", "grid", "quad", "heatmap"}, "")
    mu = measure_from_config(cfg.get("measure"), "/measure")
    alpha = _number(cfg, "alpha", "", required=True)
    t = _number(cfg, "t", "")
    quad = _quad_from(cfg.get("quad"), "/quad")
    grid = _grid_from(cfg.get("grid"), "/grid", args.grid_levels)
    result = psi_sup(mu, alpha, t, grid, quad)
    payload = {
        "sup": result.sup,
        "argmax": result.argmax,
        "slope": result.slope,
        "verdict": result.verdict,
        "level_maxima": [[j, v] for j, v in result.level_maxima],
    }
    heat_path = None
    if cfg.get("heatmap") is not None:
        hm = cfg["heatmap"]
        _check_fields(hm, {"n_radial", "n_angular", "max_radius"}, "/heatmap")
        rows = psi_heatmap(mu, alpha, t,
                           int(_number(hm, "n_radial", "/heatmap", 24)),
                           int(_number(hm, "n_angular", "/heatmap", 48)),
                           _number(hm, "max_radius", "/heatmap", 0.96), quad)
        if args.out is not None:
            path = Path(args.out)
            path.mkdir(parents=True, exist_ok=True)
            heat_path = path / "psi_heatmap.csv"
            with open(heat_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["re_a", "im_a", "psi"])
                writer.writerows(rows)
        payload["heatmap_rows"] = len(rows)
        if heat_path is not None:
            payload["heatmap_csv"] = heat_path.name
    _emit(_report_envelope("psi", cfg, payload), args.out, "psi_report.json")
    return 2 if result.divergent else 0


def _certify_config_from(cfg, args):
    _check_fields(cfg, {"measure", "p", "alpha", "r", "phi", "quad", "psi_grid",
                        "family", "lattice_epsilon", "mode", "seed"}, "")
    mu = measure_from_config(cfg.get("measure"), "/measure")
    params = SpaceParams(p=_number(cfg, "p", "", required=True),
                         alpha=_number(cfg, "alpha", "", required=True))
    r = _number(cfg, "r", "", required=True)
    phi = selfmap_from_config(cfg.get("phi", {"type": "identity"}), "/phi")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    mode = args.mode if args.mode is not None else cfg.get("mode", "unconditional")
    config = CertifyConfig(
        quad=_quad_from(cfg.get("quad"), "/quad"),
        psi_grid=_grid_from(cfg.get("psi_grid"), "/psi_grid", args.grid_levels),
        family=_family_from(cfg.get("family"), "/family", seed),
        lattice_epsilon=_number(cfg, "lattice_epsilon", "", 0.01),
        mode=mode,
    )
    return mu, params, r, phi, config


def _cmd_carleson(args):
    if args.action != "check":
        raise ConfigurationError(f"unknown carleson action '{args.action}'")
    cfg = _load_config(args.config)
    mu, params, r, phi, config = _certify_config_from(cfg, args)
    report = certify(mu, params, r, phi, config)
    envelope = _report_envelope("carleson check", cfg, report.to_dict())
    _emit(envelope, args.out, "carleson_report.json")
    if report.verdict == "error":
        print(f"certification failed at stage {report.failure['stage']}: "
              f"{report.failure['message']}", file=sys.stderr)
        return 1
    return 0 if report.verdict == "carleson" else 2


def _cmd_opnorm(args):
    cfg = _load_config(args.config)
    _check_fields(cfg, {"u", "phi", "p", "alpha", "beta", "family", "grid",
                        "quad", "seed"}, "")
    if "u" not in cfg:
        raise ConfigurationError("missing required field 'u'", "/u")
    op = WeightedCondExpOperator(
        u=Polynomial.from_pairs(cfg["u"]),
        phi=selfmap_from_config(cfg.get("phi", {"type": "identity"}), "/phi"),
        p=_number(cfg, "p", "", required=True),
        alpha=_number(cfg, "alpha", "", required=True),
        beta=_number(cfg, "beta", "", required=True),
    )
    quad = _quad_from(cfg.get("quad"), "/quad")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    family = _family_from(cfg.get("family"), "/family", seed)
    grid = _grid_from(cfg.get("grid"), "/grid", args.grid_levels)
    norm = opnorm_estimate(op, family, quad)
    crit = boundedness_criterion(op, grid, quad)
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
    cfg = _load_config(args.config)
    _check_fields(cfg, {"u", "p", "q", "alpha", "beta", "grid", "quad"}, "")
    if "u" not in cfg:
        raise ConfigurationError("missing required field 'u'", "/u")
    u = Polynomial.from_pairs(cfg["u"])
    result = multiplication_criterion(
        u,
        _number(cfg, "p", "", required=True),
        _number(cfg, "q", "", required=True),
        _number(cfg, "alpha", "", required=True),
        _number(cfg, "beta", "", required=True),
        _grid_from(cfg.get("grid"), "/grid", args.grid_levels),
        _quad_from(cfg.get("quad"), "/quad"),
    )
    payload = {
        "sup": result.sup,
        "argmax": result.argmax,
        "slope": result.slope,
        "verdict": result.verdict,
        "level_maxima": [[j, v] for j, v in result.level_maxima],
    }
    _emit(_report_envelope("mult-criterion", cfg, payload), args.out,
          "mult_criterion_report.json")
    return 2 if result.divergent else 0


def _cmd_suite(args):
    config = CertifyConfig()
    if args.grid_levels is not None:
        config = replace(config, psi_grid=replace(config.psi_grid, j_max=int(args.grid_levels)))
    if args.seed is not None:
        config = replace(config, family=replace(config.family, seed=int(args.seed)))
    if args.mode is not None:
        config = replace(config, mode=args.mode)
    report = run_suite(config)
    echo = {
        "seed": config.family.seed,
        "psi_j_max": config.psi_grid.j_max,
        "mode": config.mode,
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

    def common(p, config=True, mode=False):
        if config:
            p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory for reports (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the family seed")
        p.add_argument("--grid-levels", type=int, default=None, dest="grid_levels",
                       help="override the deepest boundary grid level J")
        if mode:
            p.add_argument("--mode", choices=["unconditional", "symmetrized"], default=None)

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
    common(p_psi)
    p_psi.set_defaults(func=_cmd_psi)

    p_car = sub.add_parser("carleson", help="three-constant certification")
    p_car.add_argument("action", choices=["check"])
    common(p_car, mode=True)
    p_car.set_defaults(func=_cmd_carleson)

    p_op = sub.add_parser("opnorm", help="operator norm lower bound and criterion")
    common(p_op)
    p_op.set_defaults(func=_cmd_opnorm)

    p_mc = sub.add_parser("mult-criterion", help="two-space multiplication criterion")
    common(p_mc)
    p_mc.set_defaults(func=_cmd_mult_criterion)

    p_suite = sub.add_parser("suite", help="bundled regression suite")
    p_suite.add_argument("--no-compare", action="store_true",
                         help="skip comparison against committed expectations")
    common(p_suite, config=False, mode=True)
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
