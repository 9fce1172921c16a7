"""The config validator against jsonschema's Draft7Validator as the oracle.

``spmlab.config`` validates with its own interpreter of the bundled schema;
jsonschema is needed for these tests only. A seeded corpus of mutated default
configs must get the same first error, word for word, from both, and a schema
keyword the interpreter does not read must be refused, not skipped.
"""

import copy
import random

import jsonschema
import pytest

import spmlab.config
from spmlab.config import _errors, _schema, _validate_schema, default_config_dict
from spmlab.errors import ConfigError

# values put at a path or under a new key: every JSON type, values that pass at
# some paths (enum strings, bounds, grid sizes) and NaN and infinity
POOL = [None, True, False, 0, 1, 2, 3, -1, 15, 0.0, 0.5, 1.0, 2.0, -0.5, 1e-9, 0.2,
        float("nan"), float("inf"), "", "x", "zero", "eigenmode", "two_point", "normal",
        "linear", "power_law", "stefan", "constant_additive", [], [0], [1], [1, 2],
        [1, 2, 3], [0.5, 0.25], [True], ["a"], [{}], {}, {"a": 1}, {"kind": "zero"},
        {"kind": "normal"}, {"kind": "two_point", "size": 1}, {"wiener_vol": 1.0}]
UNKNOWN_KEYS = ["extra", "zz", "Aa", "b1"]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def mutate(rng: random.Random, data: dict) -> dict:
    """data after 1-3 edits: delete a key, add an unknown key, or put a pool value
    at an existing path (list entries included)."""
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(data))
        edit = rng.choice(["delete", "add", "put"])
        if edit == "put":
            path = rng.choice(paths[1:])
            _at(data, path[:-1])[path[-1]] = copy.deepcopy(rng.choice(POOL))
            continue
        node = _at(data, rng.choice([p for p in paths if isinstance(_at(data, p), dict)]))
        if edit == "add":
            node[rng.choice(UNKNOWN_KEYS)] = copy.deepcopy(rng.choice(POOL))
        elif node:
            del node[rng.choice(sorted(node))]
    return data


def oracle(validator, data) -> str | None:
    """The ConfigError text of the first Draft7Validator error by path, or None."""
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        where = "/".join(str(p) for p in errors[0].absolute_path) or "<root>"
        return f"config {where}: {errors[0].message}"
    return None


def validated(data) -> str | None:
    try:
        _validate_schema(data)
    except ConfigError as err:
        return str(err)
    return None


def test_errors_match_draft7_validator_on_mutated_configs():
    validator = jsonschema.Draft7Validator(_schema())
    rng = random.Random(20261021)
    mismatches, passed, messages = [], 0, []
    for _ in range(5000):
        data = mutate(rng, default_config_dict())
        expected, got = oracle(validator, data), validated(data)
        if expected != got:
            mismatches.append((data, expected, got))
        passed += expected is None
        messages.append(expected or "")
    assert mismatches == []
    # the corpus reaches both verdicts and every keyword that can be the first error
    assert 300 < passed < 4700
    for words in ["is not of type", "is not one of", "is a required property",
                  "Additional properties are not allowed", "should be non-empty",
                  "is less than the minimum", "is less than or equal to the minimum",
                  "is greater than or equal to the maximum",
                  "is not valid under any of the given schemas"]:
        assert any(words in message for message in messages), words


@pytest.mark.parametrize("data, message", [
    ({"grid": {"dim": 1.0, "n": 15}}, None),
    ({"grid": {"dim": True, "n": 15}}, "config grid/dim: True is not of type 'integer'"),
    ({"grid": {"dim": 1, "n": 2.5}},
     "config grid/n: 2.5 is not valid under any of the given schemas"),
    ({"solver": {"window_T0": False}},
     "config solver/window_T0: False is not of type 'number', 'null'"),
    ({"grid": {"dim": 1, "n": 15, "b": 1, "a": 2}},
     "config grid: Additional properties are not allowed ('a', 'b' were unexpected)"),
    ({"initial": {"$ref": 1, "kind": "zero"}},
     "config initial: Additional properties are not allowed ('$ref' was unexpected)"),
], ids=["integral-float", "bool-integer", "one-of", "type-list", "sorted-extras", "ref-key"])
def test_draft7_rules(data, message):
    # an integral float is an integer and a bool is no number; extra properties
    # are listed sorted; a "$ref" in the config is a plain key
    config = default_config_dict()
    config.update(data)
    assert validated(config) == message == oracle(jsonschema.Draft7Validator(_schema()), config)


def test_ref_ignores_its_siblings():
    schema = copy.deepcopy(_schema())  # the parsed schema is shared: edit a copy
    schema["properties"]["initial"]["type"] = "string"  # beside the $ref: not read
    assert list(_errors(schema, default_config_dict(), (), schema)) == []


@pytest.mark.parametrize("where, keyword, value", [
    (("properties", "noise", "properties", "T"), "maximum", 10),
    (("definitions", "jumpLaw"), "maxProperties", 3),
    (("properties", "grid"), "additionalProperties", True),
], ids=["maximum", "in-definition", "additional-true"])
def test_unknown_schema_keyword_is_refused(monkeypatch, where, keyword, value):
    schema = copy.deepcopy(_schema())
    _at(schema, where)[keyword] = value
    monkeypatch.setattr(spmlab.config, "_schema", lambda: schema)
    with pytest.raises(ValueError, match=f"schema keyword '{keyword}' is not supported"):
        _validate_schema(default_config_dict())


def test_annotations_are_passed_over(monkeypatch):
    schema = copy.deepcopy(_schema())
    schema["properties"]["noise"]["properties"]["T"]["description"] = "horizon"
    monkeypatch.setattr(spmlab.config, "_schema", lambda: schema)
    _validate_schema(default_config_dict())
