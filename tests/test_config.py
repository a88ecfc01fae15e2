"""The packaged config schema and its interpreter."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from bergmanlab import config
from bergmanlab.carleson import CertifyConfig, FamilySpec, PsiGridSpec, psi_heatmap
from bergmanlab.errors import ConfigurationError
from bergmanlab.measures import QuadConfig, RadialDensity

# The code object whose defaults each schema node's "default" keywords document.
CODE_DEFAULTS = {
    "definitions/measure/oneOf/1": RadialDensity,
    "definitions/quad": QuadConfig,
    "definitions/psiGrid": PsiGridSpec,
    "definitions/family": FamilySpec,
    "properties/psi/properties/heatmap": psi_heatmap,
    "properties/carleson_check": CertifyConfig,
}


def schema_nodes(node, path=""):
    """Every schema node under ``node``, with its slash-separated path."""
    yield path, node
    for key in ("definitions", "properties"):
        for name, child in node.get(key, {}).items():
            yield from schema_nodes(child, f"{path}/{key}/{name}".lstrip("/"))
    for i, child in enumerate(node.get("oneOf", ())):
        yield from schema_nodes(child, f"{path}/oneOf/{i}")
    if "items" in node:
        yield from schema_nodes(node["items"], f"{path}/items")


def code_default(owner, name):
    if dataclasses.is_dataclass(owner):
        return {f.name: f.default for f in dataclasses.fields(owner)}[name]
    return inspect.signature(owner).parameters[name].default


def test_schema_uses_only_interpreted_keywords():
    nodes = dict(schema_nodes(config.schema()))
    assert "definitions/family/properties/kernel_radii/items" in nodes
    for path, node in nodes.items():
        assert set(node) <= config.KEYWORDS, path


def test_schema_defaults_equal_the_code_defaults():
    documented = {}
    for path, node in schema_nodes(config.schema()):
        if "default" in node:
            owner, name = path.rsplit("/properties/", 1)
            documented.setdefault(owner, {})[name] = node["default"]
    assert set(documented) == set(CODE_DEFAULTS)
    for owner, defaults in documented.items():
        for name, default in defaults.items():
            code = code_default(CODE_DEFAULTS[owner], name)
            assert json.loads(json.dumps(code)) == default, (owner, name)


@pytest.mark.parametrize("given, normalised", [
    ({"n_radial": 8.0, "n_angular": np.int64(16)}, {"n_radial": 8, "n_angular": 16}),
    ({"n_radial": np.float64(32.0)}, {"n_radial": 32}),
])
def test_integers_normalised_to_int(given, normalised):
    got = config.validate(given, "definitions/quad")
    assert got == normalised
    assert all(type(v) is int for v in got.values())


def test_numbers_normalised_to_float():
    got = config.validate({"type": "radial", "gamma": 1, "scale": np.float32(2.0)},
                          "definitions/measure")
    assert got == {"type": "radial", "gamma": 1.0, "scale": 2.0}
    assert type(got["gamma"]) is float and type(got["scale"]) is float


@pytest.mark.parametrize("narrow", [np.float32, np.float16])
def test_narrow_float_types(narrow):
    got = config.validate({"type": "radial", "gamma": narrow(1.5), "scale": narrow(2.0)},
                          "definitions/measure")
    assert got == {"type": "radial", "gamma": 1.5, "scale": 2.0}
    for value in (narrow("inf"), narrow("-inf"), narrow("nan")):
        with pytest.raises(ConfigurationError) as err:
            config.validate({"type": "radial", "gamma": 1, "scale": value},
                            "definitions/measure", "/measure")
        assert err.value.pointer == "/measure/scale"


@pytest.mark.parametrize("doc, pointer", [
    ({"n_radial": True}, "/quad/n_radial"),
    ({"n_radial": 8.5}, "/quad/n_radial"),
    ({"n_radial": "8"}, "/quad/n_radial"),
    ({"n_radial": 2}, "/quad/n_radial"),
    ({"n_angular": float("inf")}, "/quad/n_angular"),
    ({"n_radial": 8, "n_ang": 8}, "/quad/n_ang"),
    ([8, 8], "/quad"),
])
def test_rejections_carry_the_pointer(doc, pointer):
    with pytest.raises(ConfigurationError) as err:
        config.validate(doc, "definitions/quad", "/quad")
    assert err.value.pointer == pointer


def test_uninterpreted_keyword_raises(monkeypatch):
    monkeypatch.setattr(config, "schema", lambda: {"x": {"type": "string", "pattern": "a+"}})
    with pytest.raises(NotImplementedError):
        config.validate("aaa", "x")
