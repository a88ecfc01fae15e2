"""Command-line interface: configs in, reports and exit codes out."""

import json

import pytest

from bergmanlab import cli, condexp, config, measures
from bergmanlab.cli import main
from bergmanlab.suite import compare_with_expectations

SMALL_QUAD = {"n_radial": 96, "n_angular": 192}
SMALL_FAMILY = {"kernel_radii": [0.0, 0.5, 0.75, 0.875], "n_dirs": 4, "random_count": 6}


def run_cli(args):
    return main(args)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestGeom:
    def test_report(self, tmp_path, capsys):
        code = run_cli(["geom", "--a", "0.5,0", "--z", "0.2,0", "--out", str(tmp_path)])
        assert code == 0
        rep = read_report(tmp_path / "geom_report.json")
        assert rep["tool"]["name"] == "bergmanlab"
        assert abs(rep["report"]["mobius"][0] - 1.0 / 3.0) < 1e-12
        assert abs(rep["report"]["disk"]["area"] - 0.4463176067353688) < 1e-12

    def test_stdout_when_no_out(self, capsys):
        assert run_cli(["geom", "--a", "0.1,0", "--z", "0.0,0"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["command"] == "geom"

    def test_bad_point(self, capsys):
        assert run_cli(["geom", "--a", "1.5,0", "--z", "0,0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_nan_point(self, capsys):
        assert run_cli(["geom", "--a", "nan,0", "--z", "0,0"]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err and captured.out == ""

    @pytest.mark.parametrize("a, z, named", (("0.1,0.2,0.3", "0,0", "--a"),
                                             ("0.1,0", "0", "--z"),
                                             ("0.1,x", "0,0", "--a")))
    def test_point_must_have_two_parts(self, a, z, named, capsys):
        assert run_cli(["geom", "--a", a, "--z", z]) == 1
        captured = capsys.readouterr()
        assert "config error: " + named in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag, value", (("--r", "nan"), ("--r", "inf"),
                                             ("--alpha", "inf"), ("--p", "inf")))
    def test_numbers_must_be_finite(self, flag, value, capsys):
        assert run_cli(["geom", "--a", "0.1,0.2", "--z", "0,0", flag, value]) == 1
        captured = capsys.readouterr()
        assert "config error: " + flag in captured.err and captured.out == ""


class TestLattice:
    def test_report(self, tmp_path):
        code = run_cli(["lattice", "--r", "1.0", "--epsilon", "0.2",
                        "--samples", "3000", "--out", str(tmp_path)])
        assert code == 0
        rep = read_report(tmp_path / "lattice_report.json")["report"]
        assert rep["cover"]["uncovered_count"] == 0
        assert rep["min_separation"] >= 0.5 - 1e-12
        assert rep["count"] == len(rep["points"])
        assert {"re", "im"} == set(rep["points"][0])

    def test_invalid_radius(self, capsys):
        assert run_cli(["lattice", "--r", "2.0", "--epsilon", "0.1"]) == 1


class TestCondexp:
    def test_polynomial_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "map": {"type": "monomial", "n": 2},
            "f": [[1, 0], [1, 0], [1, 0]],
            "points": [[0.5, 0.0]],
        }))
        code = run_cli(["condexp", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rep = read_report(tmp_path / "condexp_report.json")["report"]
        assert rep["polynomial"] == [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        assert abs(rep["values"][0][0] - 1.25) < 1e-12

    @pytest.mark.parametrize("phi, points", [
        ({"type": "monomial", "n": 2}, [[0.5, 0.0], [0.0, 0.0]]),
        ({"type": "blaschke", "zeros": [[0.3, 0.0], [-0.3, 0.0]]}, [[0.2, 0.1], [0.0, 0.0]]),
    ], ids=["monomial", "blaschke"])
    def test_critical_point_rejected(self, phi, points, tmp_path, capsys):
        # 0 is a critical point of both maps; the expectation is undefined there
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map": phi, "f": [[1, 0], [1, 0], [1, 0]],
                                   "points": points}))
        assert run_cli(["condexp", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "/points/1" in capsys.readouterr().err
        assert not (tmp_path / "condexp_report.json").exists()

    @pytest.mark.parametrize("phi, polynomial", [
        ({"type": "identity"}, [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
        ({"type": "blaschke", "zeros": [[0.3, 0.0], [-0.3, 0.0]]}, None),
    ], ids=["identity", "blaschke"])
    def test_polynomial_reported_with_points(self, phi, polynomial, tmp_path):
        # The key does not depend on whether points were asked for.
        for extra in ({}, {"points": [[0.5, 0.0]]}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"map": phi, "f": [[1, 0], [1, 0], [1, 0]], **extra}))
            assert run_cli(["condexp", "--config", str(cfg), "--out", str(tmp_path)]) == 0
            rep = read_report(tmp_path / "condexp_report.json")["report"]
            assert rep["polynomial"] == polynomial
            assert ("values" in rep) == bool(extra)

    def test_unknown_map(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map": {"type": "rational"}, "f": [[1, 0]]}))
        assert run_cli(["condexp", "--config", str(cfg)]) == 1
        assert "/map" in capsys.readouterr().err


class TestPsi:
    def test_bounded_with_heatmap(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "measure": {"type": "atomic", "atoms": [{"re": 0.9, "im": 0, "mass": 1.0}]},
            "alpha": 0.0,
            "grid": {"j_min": 4, "j_max": 8, "n_dirs": 8},
            "heatmap": {"n_radial": 4, "n_angular": 6, "max_radius": 0.9},
        }))
        code = run_cli(["psi", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rep = read_report(tmp_path / "psi_report.json")["report"]
        assert rep["verdict"] == "bounded"
        csv_lines = (tmp_path / "psi_heatmap.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "re_a,im_a,psi"
        assert len(csv_lines) == 1 + rep["heatmap_rows"]

    def test_divergent_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "measure": {"type": "radial", "gamma": -0.5},
            "alpha": 0.0,
            "grid": {"j_min": 4, "j_max": 10, "n_dirs": 4},
        }))
        assert run_cli(["psi", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestCarlesonCheck:
    def base_config(self):
        return {
            "measure": {"type": "area", "alpha": 0.0},
            "p": 2.0, "alpha": 0.0, "r": 1.0,
            "quad": SMALL_QUAD,
            "psi_grid": {"j_min": 4, "j_max": 9, "n_dirs": 8},
            "family": SMALL_FAMILY,
            "lattice_epsilon": 0.03,
        }

    def test_reference_measure(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.base_config()))
        code = run_cli(["carleson", "check", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rep = read_report(tmp_path / "carleson_report.json")["report"]
        assert rep["verdict"] == "carleson"
        assert abs(rep["constants"]["c1"] - 1.0) < 1e-6
        assert abs(rep["constants"]["c3"] - 1.0) < 1e-6

    def test_not_carleson_exit_code(self, tmp_path):
        cfg_data = self.base_config()
        cfg_data["measure"] = {"type": "radial", "gamma": -0.5}
        cfg_data["psi_grid"]["j_max"] = 10
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        assert run_cli(["carleson", "check", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_weight_with_nearly_integer_2f1_parameters_is_carleson(self, tmp_path):
        # gamma + 2 - 2 (gamma - alpha) is within rounding of 1 here; scipy's 2F1
        # alone made c3 inf from 1 - |a| = 2^-10 and the exit code 2.
        cfg_data = self.base_config()
        cfg_data["measure"] = {"type": "radial", "gamma": 1.1}
        cfg_data["alpha"] = 0.05
        cfg_data["psi_grid"]["j_max"] = 10
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        code = run_cli(["carleson", "check", "--config", str(cfg), "--out", str(tmp_path)])
        rep = read_report(tmp_path / "carleson_report.json")["report"]
        assert rep["verdict"] == "carleson"
        assert rep["constants"]["c3"] == pytest.approx(1.0 / 2.1, rel=1e-12)
        assert code == 0

    def test_blaschke_zero_at_the_origin_certifies(self, tmp_path):
        # A zero at 0 leaves prod(1 - conj(a) z) one degree short.
        cfg_data = self.base_config()
        cfg_data["phi"] = {"type": "blaschke", "zeros": [[0.0, 0.0], [0.3, 0.1]]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        code = run_cli(["carleson", "check", "--config", str(cfg), "--out", str(tmp_path)])
        rep = read_report(tmp_path / "carleson_report.json")["report"]
        assert "failure" not in rep
        assert rep["verdict"] == "carleson"
        assert code == 0

    def test_deep_grid_keeps_not_carleson(self, tmp_path):
        cfg_data = self.base_config()
        cfg_data["measure"] = {"type": "radial", "gamma": -0.5}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        code = run_cli(["carleson", "check", "--config", str(cfg), "--out", str(tmp_path),
                        "--grid-levels", "18"])
        rep = read_report(tmp_path / "carleson_report.json")["report"]
        assert rep["config"]["psi_grid"]["j_max"] == 18
        assert rep["verdict"] == "not-carleson"
        assert code == 2

    def test_unknown_field_pointer(self, tmp_path, capsys):
        cfg_data = self.base_config()
        cfg_data["measur"] = {}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_data))
        assert run_cli(["carleson", "check", "--config", str(cfg)]) == 1
        assert "measur" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.base_config()))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run_cli(["carleson", "check", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run_cli(["carleson", "check", "--config", str(cfg), "--out", str(out2)]) == 0
        b1 = (out1 / "carleson_report.json").read_bytes()
        b2 = (out2 / "carleson_report.json").read_bytes()
        assert b1 == b2

    def test_seed_echoed_and_overridable(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.base_config()))
        run_cli(["carleson", "check", "--config", str(cfg), "--out", str(tmp_path),
                 "--seed", "42"])
        rep = read_report(tmp_path / "carleson_report.json")["report"]
        assert rep["config"]["family"]["seed"] == 42


class TestOpnormCli:
    def test_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "u": [[0, 0], [1, 0]],
            "phi": {"type": "monomial", "n": 2},
            "p": 2.0, "alpha": 0.0, "beta": 0.0,
            "quad": SMALL_QUAD,
            "family": SMALL_FAMILY,
            "grid": {"j_min": 4, "j_max": 8, "n_dirs": 4},
        }))
        code = run_cli(["opnorm", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rep = read_report(tmp_path / "opnorm_report.json")["report"]
        assert 0 < rep["opnorm_lower_bound"] < 1.5
        assert rep["criterion_verdict"] == "bounded"
        assert rep["expectation_analytic"] is True


class TestMultCriterionCli:
    def test_divergent_embedding(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "u": [[1, 0]], "p": 2.0, "q": 4.0, "alpha": 0.0, "beta": 0.0,
            "grid": {"j_min": 4, "j_max": 10, "n_dirs": 4},
        }))
        code = run_cli(["mult-criterion", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        rep = read_report(tmp_path / "mult_criterion_report.json")["report"]
        assert -2.3 < rep["slope"] < -1.7

    def test_bounded(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "u": [[1, 0]], "p": 2.0, "q": 2.0, "alpha": 0.0, "beta": 0.0,
            "grid": {"j_min": 4, "j_max": 8, "n_dirs": 4},
        }))
        assert run_cli(["mult-criterion", "--config", str(cfg), "--out", str(tmp_path)]) == 0


class TestExpectationsComparer:
    def test_detects_verdict_change(self):
        base = {
            "carleson": {"case": {"verdict": "carleson",
                                  "constants": {"c1": 1.0, "c2": 0.5,
                                                "c2_normalized": 1.0, "c3": 1.0},
                                  "divergence": {"psi_slope": 0.0}}},
            "operators": {},
            "comparability": {"max_pairwise_ratio": 1.0},
        }
        expected = {
            "carleson": {"case": {"verdict": "not-carleson",
                                  "constants": {"c1": 1.0, "c2": 0.5,
                                                "c2_normalized": 1.0, "c3": 1.0},
                                  "psi_slope": 0.0}},
            "comparability": {"max_pairwise_ratio": 1.0},
        }
        mismatches = compare_with_expectations(base, expected)
        assert any("verdict" in m for m in mismatches)

    def test_passes_on_match(self):
        report = {
            "carleson": {},
            "operators": {"op": {"opnorm_lower_bound": 1.0, "criterion_sup": 1.0,
                                 "criterion_verdict": "bounded"}},
            "comparability": {"max_pairwise_ratio": 2.0},
        }
        expected = {
            "operators": {"op": {"opnorm_lower_bound": 1.0, "criterion_sup": 1.0,
                                 "criterion_verdict": "bounded"}},
            "comparability": {"max_pairwise_ratio": 2.0},
        }
        assert compare_with_expectations(report, expected) == []


PSI = {"measure": {"type": "area", "alpha": 0.0}, "alpha": 0.0,
       "grid": {"j_min": 4, "j_max": 5, "n_dirs": 2}}
CHECK = {"measure": {"type": "area", "alpha": 0.0}, "p": 2.0, "alpha": 0.0, "r": 1.0,
         "quad": {"n_radial": 16, "n_angular": 32}, "psi_grid": {"j_max": 5, "n_dirs": 2},
         "family": {"kernel_radii": [0.0], "random_count": 1}, "lattice_epsilon": 0.3}
OPNORM = {"u": [[1, 0]], "p": 2.0, "alpha": 0.0, "beta": 0.0}
MULT = {"u": [[1, 0]], "p": 2.0, "q": 2.0, "alpha": 0.0, "beta": 0.0}
CONDEXP = {"map": {"type": "identity"}, "f": [[1, 0]]}
ATOM = {"re": 0.5, "im": 0.0, "mass": 1.0}
GRID_MEASURE = {"type": "grid", "alpha": 0.0, "n_radial": 4, "n_angular": 8, "values": [1.0] * 32}


class TestConfigErrors:
    @pytest.mark.parametrize("command, doc, pointer", [
        ("condexp", {**CONDEXP, "map": {"type": "monomial", "n": 2.5}}, "/map/n"),
        ("condexp", {**CONDEXP, "map": {"type": "monomial", "n": True}}, "/map/n"),
        ("psi", {**PSI, "measure": {"type": "area", "alpha": "0.5"}}, "/measure/alpha"),
        ("psi", {**PSI, "measure": {"type": "atomic", "atoms": []}}, "/measure/atoms"),
        ("psi", {**PSI, "measure": {"type": "atomic", "atoms": [{**ATOM, "weight": 2.0}]}},
         "/measure/atoms/0/weight"),
        ("carleson", {**CHECK, "quad": {"n_radial": 16.9, "n_angular": 8}}, "/quad/n_radial"),
        ("psi", {**PSI, "heatmap": {"max_radius": 1.5}}, "/heatmap/max_radius"),
        ("carleson", {**CHECK, "family": {"n_dirs": 1.9}}, "/family/n_dirs"),
        ("carleson", {**CHECK, "seed": 1.9}, "/seed"),
        ("carleson", {**CHECK, "family": {"kernel_radii": 0.5}}, "/family/kernel_radii"),
        ("carleson", {**CHECK, "seed": -5}, "/seed"),
        ("carleson", {**CHECK, "family": {"seed": -5}}, "/family/seed"),
        ("opnorm", {**OPNORM, "seed": -5}, "/seed"),
        ("opnorm", {**OPNORM, "quad": {"n_radial": 10**400, "n_angular": 8}}, "/quad/n_radial"),
        ("psi", {**PSI, "heatmap": {"n_angular": 2049}}, "/heatmap/n_angular"),
        ("psi", {**PSI, "measure": {**GRID_MEASURE, "n_radial": 1025}}, "/measure/n_radial"),
        ("psi", {**PSI, "grid": {"j_max": 54}}, "/grid/j_max"),
        ("carleson", {**CHECK, "psi_grid": {"j_max": 54}}, "/psi_grid/j_max"),
        ("psi", {**PSI, "measure": {"type": "atomic", "atoms": [{**ATOM, "re": 1.0}]}},
         "/measure"),
        # Psi reads no quadrature rule, so these documents have no quad.
        ("psi", {**PSI, "quad": {"n_radial": 16, "n_angular": 32}}, "/quad"),
        ("mult-criterion", {**MULT, "quad": {"n_radial": 16, "n_angular": 32}}, "/quad"),
    ])
    def test_malformed_config_named_by_pointer(self, command, doc, pointer, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, "check"] if command == "carleson" else [command]
        assert run_cli(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"config error: {pointer}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, pointer, detail", [
        ("psi", {**PSI, "grid": {"j_min": 12}}, "/grid", "need 1 <= j_min <= j_max, got (12, 10)"),
        ("carleson", {**CHECK, "psi_grid": {"j_min": 12}}, "/psi_grid", "got (12, 10)"),
        ("psi", {**PSI, "measure": {**GRID_MEASURE, "values": [1.0] * 3}}, "/measure/values",
         "need n_radial * n_angular = 32 values, got 3"),
        ("carleson", {**CHECK, "measure": {"type": "sum", "parts": [
            {"type": "area", "alpha": 0.0}, {**GRID_MEASURE, "values": [1.0] * 33}]}},
         "/measure/parts/1/values", "= 32 values, got 33"),
    ], ids=("psi-grid", "carleson-psi_grid", "grid-values", "sum-part-grid-values"))
    def test_condition_across_fields_named_by_pointer(self, command, doc, pointer, detail,
                                                      tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, "check"] if command == "carleson" else [command]
        assert run_cli(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {pointer}: " in err and detail in err

    @pytest.mark.parametrize("command, doc, pointer", [
        ("psi", {**PSI, "grid": {"j_min": 6}}, "/grid"),
        ("carleson", {**CHECK, "psi_grid": {"j_min": 6}}, "/psi_grid"),
        ("opnorm", {"u": [[1, 0]], "p": 2.0, "alpha": 0.0, "beta": 0.0, "grid": {"j_min": 6}},
         "/grid"),
        ("mult-criterion", {"u": [[1, 0]], "p": 2.0, "q": 2.0, "alpha": 0.0, "beta": 0.0,
                            "grid": {"j_min": 6}}, "/grid"),
    ])
    def test_grid_levels_below_j_min_named(self, command, doc, pointer, tmp_path, capsys):
        # --grid-levels replaces j_max after the document is built; the error
        # names the flag and the grid it conflicts with
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, "check"] if command == "carleson" else [command]
        assert run_cli(argv + ["--config", str(cfg), "--grid-levels", "4"]) == 1
        err = capsys.readouterr().err
        assert f"config error: {pointer}: --grid-levels 4: " in err
        assert "need 1 <= j_min <= j_max, got (6, 4)" in err

    @pytest.mark.parametrize("argv, doc", [
        (["carleson", "check"], CHECK),
        (["opnorm"], OPNORM),
        (["suite"], None),
    ], ids=("carleson", "opnorm", "suite"))
    def test_negative_seed_flag_named(self, argv, doc, tmp_path, capsys):
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv = argv + ["--config", str(cfg)]
        assert run_cli(argv + ["--seed", "-3"]) == 1
        assert "config error: --seed -3: seed must be >= 0, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, doc, prefix", [
        (["suite"], None, ""),
        (["psi"], PSI, "/grid: "),
        (["carleson", "check"], CHECK, "/psi_grid: "),
    ], ids=("suite", "psi", "carleson"))
    def test_grid_levels_past_the_last_float_level_named(self, argv, doc, prefix, tmp_path,
                                                         capsys):
        # From level 54 on, 1 - 2^-j rounds to 1.0.
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv = argv + ["--config", str(cfg)]
        assert run_cli(argv + ["--grid-levels", "54"]) == 1
        assert f"config error: {prefix}--grid-levels 54: j_max must be <= 53" \
            in capsys.readouterr().err

    def test_grid_levels_below_suite_j_min_named(self, capsys):
        assert run_cli(["suite", "--grid-levels", "2"]) == 1
        assert "config error: --grid-levels 2: need 1 <= j_min <= j_max, got (4, 2)" \
            in capsys.readouterr().err

    def test_measure_validated_once(self, monkeypatch, tmp_path):
        # The whole document is validated at the root; building the measure
        # and the map from it validates neither subtree again.
        paths = []
        original = config.validate

        def counted(doc, path, pointer=""):
            paths.append(path)
            return original(doc, path, pointer)
        for module in (config, cli, measures, condexp):
            monkeypatch.setattr(module, "validate", counted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CHECK, "measure": GRID_MEASURE, "phi": {"type": "identity"}}))
        code = run_cli(["carleson", "check", "--config", str(cfg), "--out", str(tmp_path)])
        assert code in (0, 2)
        assert paths.count("definitions/measure") == 1
        assert paths.count("definitions/selfMap") == 1

    @pytest.mark.parametrize("argv", [
        ["geom", "--a", "0,0", "--z", "0,0", "--seed", "5"],
        ["geom", "--a", "0,0", "--z", "0,0", "--grid-levels", "8"],
        ["lattice", "--seed", "5"],
        ["condexp", "--grid-levels", "8"],
        ["psi", "--seed", "5"],
        ["mult-criterion", "--seed", "5"],
        ["suite", "--mode", "symmetrized"],
    ])
    def test_flag_the_subcommand_ignores_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert run_cli(["psi"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run_cli(["psi", "--config", str(cfg)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0
