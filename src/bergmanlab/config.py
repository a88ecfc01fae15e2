"""The packaged config schema, interpreted: the one table of config fields and bounds.

``validate(doc, path)`` checks a document against the schema node at ``path``
("definitions/measure", "properties/psi", ...) and returns a normalised copy:
"number" values as float, "integer" values as int (integral floats such as
3.0 included; bools are neither). Absent optional fields stay absent, so the
dataclass and function defaults, which the schema's ``default`` keywords
document, are the only runtime defaults. Errors are ConfigurationErrors with
a JSON pointer to the field. A ``oneOf`` is a union tagged by each branch's
``type`` const. A keyword outside ``KEYWORDS`` raises NotImplementedError, so
the schema cannot gain a rule that is silently not enforced.
"""

from __future__ import annotations

import json
import numbers
import operator
import sys
from functools import lru_cache
from importlib import resources

from .errors import ConfigurationError

ANNOTATIONS = frozenset({"$schema", "title", "description", "default", "definitions"})
BOUNDS = {"minimum": (operator.ge, ">="), "maximum": (operator.le, "<="),
          "exclusiveMinimum": (operator.gt, ">"), "exclusiveMaximum": (operator.lt, "<")}
KEYWORDS = ANNOTATIONS | BOUNDS.keys() | {
    "$ref", "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "const", "enum", "oneOf"}
CONTAINERS = {"object": dict, "array": (list, tuple)}
TYPES = frozenset({None, "number", "integer", *CONTAINERS})


@lru_cache(maxsize=1)
def schema():
    """The packaged schema document, read once."""
    return json.loads(resources.files("bergmanlab").joinpath("data", "config.schema.json")
                      .read_text())


def validate(doc, path, pointer=""):
    """Check ``doc`` against the schema node at ``path``; return the normalised copy."""
    node = schema()
    for part in path.split("/"):
        node = node[part]
    return _check(doc, node, pointer)


def _fail(message, pointer):
    raise ConfigurationError(message, pointer or "/")


def _check(value, node, pointer):
    kind = node.get("type")
    if not KEYWORDS.issuperset(node) or kind not in TYPES \
            or not isinstance(node.get("items", {}), dict) \
            or not isinstance(node.get("additionalProperties", True), bool):
        raise NotImplementedError(f"config schema node {node} is not interpreted")
    if "$ref" in node:
        return validate(value, node["$ref"].removeprefix("#/"), pointer)
    if kind in CONTAINERS and not isinstance(value, CONTAINERS[kind]):
        _fail(f"must be an {kind}", pointer)
    if kind in ("number", "integer"):
        value = _scalar(value, kind, pointer)
        for key, (holds, symbol) in BOUNDS.items():
            if key in node and not holds(value, node[key]):
                _fail(f"must be {symbol} {node[key]}", pointer)
    if "const" in node and value != node["const"]:
        _fail(f"must be {node['const']!r}", pointer)
    if "enum" in node and value not in node["enum"]:
        _fail(f"must be one of {', '.join(map(repr, node['enum']))}", pointer)
    if isinstance(value, CONTAINERS["array"]):
        if len(value) < node.get("minItems", 0):
            _fail(f"must have at least {node['minItems']} item(s)", pointer)
        if len(value) > node.get("maxItems", len(value)):
            _fail(f"must have at most {node['maxItems']} item(s)", pointer)
        if "items" in node:
            value = [_check(v, node["items"], f"{pointer}/{i}") for i, v in enumerate(value)]
    return _check_object(value, node, pointer) if isinstance(value, dict) else value


def _check_object(value, node, pointer):
    properties = node.get("properties", {})
    out = {}
    for key, item in value.items():
        if key in properties:
            out[key] = _check(item, properties[key], f"{pointer}/{key}")
        elif node.get("additionalProperties") is False:
            _fail(f"unknown field '{key}'", f"{pointer}/{key}")
        else:
            out[key] = item
    for key in node.get("required", ()):
        if key not in value:
            _fail(f"missing required field '{key}'", f"{pointer}/{key}")
    if "oneOf" not in node:
        return out
    tags = [branch["properties"]["type"]["const"] for branch in node["oneOf"]]
    if value["type"] not in tags:
        _fail(f"unknown type {value['type']!r}; expected one of {', '.join(tags)}",
              f"{pointer}/type")
    return _check(out, node["oneOf"][tags.index(value["type"])], pointer)


def _scalar(value, kind, pointer):
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if kind == "integer" and isinstance(value, numbers.Integral):
            return int(value)
        if abs(value) <= sys.float_info.max and (kind == "number" or float(value).is_integer()):
            return float(value) if kind == "number" else int(value)
    _fail("must be a finite number" if kind == "number" else "must be an integer", pointer)
