"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They run in about half a minute; the repository's own suite under ``tests/``
does not collect them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import warm  # noqa: E402

warm.use_checkout_source()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from bergmanlab import carleson, measures  # noqa: E402


def _shape(request):
    params = request.params
    measure = params.get("measure", {})
    atoms = measure.get("atoms")
    return (request.kind, measure.get("type"), len(atoms) if atoms else None,
            json.dumps(params.get("phi", {}).get("type")), params.get("r"),
            params.get("epsilon"), json.dumps(params.get("quad")), request.known_defect)


def test_cold_mix_is_fixed_by_its_seed():
    assert workloads.requests("cold-mix", 7, 2) == workloads.requests("cold-mix", 7, 2)
    assert workloads.requests("cold-mix", 7, 1) != workloads.requests("cold-mix", 8, 1)
    first, second = workloads.cold_mix_pass(7, 0), workloads.cold_mix_pass(7, 1)
    assert first != second


def test_cold_mix_pass_has_the_same_slots_for_every_seed():
    shapes = [list(map(_shape, workloads.cold_mix_pass(seed, 0))) for seed in (1, 2, 3)]
    assert shapes[0] == shapes[1] == shapes[2]
    lattices = {(r.params["r"], r.params["epsilon"])
                for r in workloads.cold_mix_pass(1, 0) if r.kind == "certify"}
    assert lattices == set(workloads.LATTICES)


def test_suite_seed_only_permutes_the_cases():
    one = workloads.requests("carleson-suite", 1, 1)
    two = workloads.requests("carleson-suite", 2, 1)
    assert sorted(r.params["case"] for r in one) == sorted(r.params["case"] for r in two)
    assert len(one) == 17 and one != two
    ops = workloads.requests("operator-suite", 1, 1)
    assert sorted(r.params["case"] for r in ops) == sorted(workloads.OPERATOR_CASES)
    assert set(workloads.OPERATOR_CASES) <= set(workloads.expectations()["operators"])


def test_checker_flags_a_perturbed_constant_and_a_flipped_verdict():
    name = "atom-0.9[alpha=0]"
    expected = workloads.expectations()["carleson"][name]
    request = workloads.Request("r", "carleson-case", {"case": name})
    good = {"verdict": expected["verdict"], "constants": dict(expected["constants"])}
    assert workloads.check(request, good) == []

    perturbed = json.loads(json.dumps(good))
    perturbed["constants"]["c2"] *= 1.0 + 1e-5
    assert any("c2" in p for p in workloads.check(request, perturbed))
    flipped = dict(good, verdict="not-carleson")
    assert any("verdict" in p for p in workloads.check(request, flipped))

    name = "u=z|phi=z^2|alpha=1"
    expected = workloads.expectations()["operators"][name]
    request = workloads.Request("r", "operator-case", {"case": name})
    good = dict(expected)
    assert workloads.check(request, good) == []
    perturbed = dict(good, opnorm_lower_bound=good["opnorm_lower_bound"] * (1.0 + 1e-5))
    assert any("opnorm_lower_bound" in p for p in workloads.check(request, perturbed))
    flipped = dict(good, criterion_verdict="divergent")
    assert any("verdict" in p for p in workloads.check(request, flipped))


def test_checker_uses_the_known_answers_of_cold_mix():
    radial = next(r for r in workloads.cold_mix_pass(1, 0)
                  if r.kind == "certify" and r.params["measure"]["type"] == "radial"
                  and r.known_defect is None and r.params["expect"] == "not-carleson")
    constants = {"c1": 1.0, "c2": 1.0, "c2_normalized": 1.0, "c3": 1.0}
    assert workloads.check(radial, {"verdict": "not-carleson", "constants": constants}) == []
    assert workloads.check(radial, {"verdict": "carleson", "constants": constants})
    flat = next(r for r in workloads.cold_mix_pass(1, 0) if r.kind == "psi-flat")
    values = [1.0] * len(flat.params["points"])
    assert workloads.check(flat, {"psi": values}) == []
    assert workloads.check(flat, {"psi": values[:-1] + [1.0 + 2e-6]})


def test_tracing_leaves_every_result_byte_identical():
    quick = {}
    for request in workloads.cold_mix_pass(5, 0):
        params = request.params
        cheap = request.kind != "certify" or (
            params["measure"]["type"] == "atomic" and len(params["measure"]["atoms"]) == 64
            and params["j_max"] == 10 and params["quad"] == list(workloads.DEFAULT_QUAD))
        if cheap:
            quick.setdefault(request.kind, request)
    requests = list(quick.values())
    assert sorted(quick) == ["certify", "multiplication", "operator", "psi-flat"]

    tracer = tracing.Tracer()
    originals = (carleson.test_function, measures.build_quadrature, measures.Atomic.integrate)
    tracer.install()
    try:
        traced = []
        for request in requests:
            with tracer.request(request.id):
                traced.append(json.dumps(workloads.execute(request)))
    finally:
        tracer.uninstall()
    assert (carleson.test_function, measures.build_quadrature,
            measures.Atomic.integrate) == originals
    untraced = [json.dumps(workloads.execute(r)) for r in requests]
    assert traced == untraced

    values = tracer.layer_values()
    assert values["carleson.certify.calls"] == 1
    assert values["operators.opnorm_estimate.calls"] == 1
    assert values["condexp.cond_expect_values.orbit_points"] > 0
    assert values["measures.build_quadrature.misses"] > 0
    requests_s = sum(e - s for name, s, e, _, _ in tracer.spans if name == tracing.REQUEST)
    assert abs(values["trace.self_total_s"] - requests_s) < 1e-6 * len(tracer.spans)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    added_by_run = {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                    "trace.span_cost_s"}
    assert {m["name"] for m in spec["per_layer"]} - added_by_run <= set(values)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
