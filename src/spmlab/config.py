"""Experiment configuration: JSON loading, schema validation, object builders.

``ExperimentConfig.load`` reads a JSON config (the bundled default when none
is given), applies dotted-path overrides (``solver.picard_tol=1e-8``) to it and
validates the result once with ``_errors``, which interprets the Draft-7
keywords of ``spmlab/data/experiment.schema.json``. The defaults, merged in
afterwards, live in one table, ``_DEFAULTS``. Cross-section rules the schema
cannot express (one diffusion coefficient entry per noise mode, the solver's
surjectivity and lam = 0 gates, its sweep and level orders) are enforced here.
Every refusal names its section once, through ``_section``. Graphs, jump laws
and noise modes are built by their own constructors from the config entries
that name one of their fields, so their defaults live in one place.
"""

from __future__ import annotations

import copy
import hashlib
import json
import numbers
from contextlib import contextmanager
from dataclasses import fields
from importlib import resources

import numpy as np

from .errors import ConfigError, SolverError
from .grid import DEFAULT_NODE_CAP, build_laplacian, eigenmode, make_grid
from .monotone import Linear, PowerLaw, ScaledSignum, StefanPiecewise
from .noise import (
    ConstantAdditive,
    LinearSpectral,
    NoiseMode,
    NoiseSpec,
    NormalJumps,
    SmoothedNemytskii,
    TwoPointJumps,
)
from .solver import SolverConfig, check_gates, check_lambdas, check_levels

# {section: {key: default}}; the solver's lam, dt and allow_nonsurjective come
# from the beta and noise sections
_DEFAULTS = {
    "grid": {"length": 1.0, "node_cap": DEFAULT_NODE_CAP},
    "beta": {"params": {}, "lambda": 0.0, "allow_nonsurjective": False},
    "diffusion": {"params": {}, "gamma": 1.0},
    "initial": {"kind": "zero"},
    "solver": {f.name: f.default for f in fields(SolverConfig)
               if f.name not in ("lam", "dt", "allow_nonsurjective")},
    "run": {"output_dir": "spmlab_out"},
}
_DEFAULT_SWEEP = [0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625]
_DEFAULT_LEVELS = [2, 4, 8, 16]
_GRAPHS = {"power_law": PowerLaw, "linear": Linear, "scaled_signum": ScaledSignum,
           "stefan": StefanPiecewise}
_JUMP_LAWS = {"two_point": TwoPointJumps, "normal": NormalJumps}


def _schema() -> dict:
    with resources.files("spmlab.data").joinpath("experiment.schema.json").open() as fh:
        return json.load(fh)


def default_config_dict() -> dict:
    with resources.files("spmlab.data").joinpath("default_config.json").open() as fh:
        return json.load(fh)


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None),
          "number": numbers.Number, "integer": int}
# keyword: (whether a number fails the bound, the words between the two)
_BOUNDS = {"minimum": (lambda x, b: x < b, "less than the minimum"),
           "exclusiveMinimum": (lambda x, b: x <= b, "less than or equal to the minimum"),
           "exclusiveMaximum": (lambda x, b: x >= b, "greater than or equal to the maximum")}
_KEYWORDS = {*_BOUNDS, *"""type enum const required properties items minItems maxItems allOf
             oneOf if then $schema title description definitions""".split()}


def _is_type(value, name: str) -> bool:
    """Draft 7's types: a bool is no number, and an integral float is an integer."""
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[name]) and (name == "boolean" or not isinstance(value, bool))


def _errors(schema: dict, value, path: tuple, root: dict):
    """(path, message) for each rule of schema that value breaks, worded and
    ordered as by Draft7Validator, for the keywords the bundled schema uses;
    others raise ValueError. enum and const hold scalars; True is not 1."""
    if "$ref" in schema:  # Draft 7 ignores the siblings of a $ref
        target = root
        for key in schema["$ref"].removeprefix("#/").split("/"):
            target = target[key]
        yield from _errors(target, value, path, root)
        return
    obj, array = isinstance(value, dict), isinstance(value, list)
    for key, arg in schema.items():
        if key not in _KEYWORDS and (key, arg) != ("additionalProperties", False):
            raise ValueError(f"schema keyword {key!r} is not supported")
        elif key == "type":
            names = [arg] if isinstance(arg, str) else arg
            if not any(_is_type(value, name) for name in names):
                yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"
        elif key in ("enum", "const") and not any(
                isinstance(value, bool) == isinstance(each, bool) and value == each
                for each in (arg if key == "enum" else [arg])):
            yield path, (f"{value!r} is not one of {arg!r}" if key == "enum"
                         else f"{arg!r} was expected")
        elif key in _BOUNDS and _is_type(value, "number") and _BOUNDS[key][0](value, arg):
            yield path, f"{value!r} is {_BOUNDS[key][1]} of {arg!r}"
        elif key == "minItems" and array and len(value) < arg:
            yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems" and array and len(value) > arg:
            yield path, f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif key == "required" and obj:
            yield from ((path, f"{n!r} is a required property") for n in arg if n not in value)
        elif key == "properties" and obj:
            for name in (name for name in arg if name in value):
                yield from _errors(arg[name], value[name], path + (name,), root)
        elif key == "additionalProperties" and obj:
            extras = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
            if extras:
                yield path, "Additional properties are not allowed (%s %s unexpected)" % (
                    ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
        elif key == "items" and array:
            for index, item in enumerate(value):
                yield from _errors(arg, item, path + (index,), root)
        elif key == "allOf":
            yield from (error for sub in arg for error in _errors(sub, value, path, root))
        elif key == "oneOf":
            passed = [sub for sub in arg if not any(_errors(sub, value, path, root))]
            if not passed:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif len(passed) > 1:  # the first one valid goes last
                each = ", ".join(map(repr, passed[1:] + passed[:1]))
                yield path, f"{value!r} is valid under each of {each}"
        elif key == "if" and "then" in schema and not any(_errors(arg, value, path, root)):
            yield from _errors(schema["then"], value, path, root)


def _validate_schema(data: dict):
    schema = _schema()  # raises the first error after a stable sort by path
    first = min(_errors(schema, data, (), schema), key=lambda error: error[0], default=None)
    if first is not None:
        raise ConfigError(f"config {'/'.join(map(str, first[0])) or '<root>'}: {first[1]}")


@contextmanager
def _section(name: str):
    """Re-raise a value refused inside the block as ConfigError naming the
    section; a ConfigError passes unchanged, so no message names it twice."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, SolverError) as err:
        raise ConfigError(f"config {name}: {err}")


def _construct(cls, params: dict, section: str, **given):
    """cls built from the params entries that name one of its dataclass fields,
    as floats, plus the given keywords; other entries are ignored."""
    with _section(section):
        return cls(**{f.name: float(params[f.name]) for f in fields(cls)
                      if f.name in params and f.name not in given}, **given)


def _build_field(spec: dict, L) -> np.ndarray:
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return np.zeros(L.n)
    if kind == "eigenmode":
        index = int(spec.get("index", 0))
        if index >= L.n:
            raise ValueError(f"eigenmode index {index} out of range for {L.n} nodes")
        return float(spec.get("scale", 1.0)) * eigenmode(L, index)
    if kind == "spectral_random":
        rng = np.random.default_rng(int(spec.get("seed", 0)))
        decay = float(spec.get("decay", 0.0))
        coeff = rng.standard_normal(L.n) * L.eigenvalues ** (-0.5 * decay)
        field = (L.eigenvectors @ coeff) / np.sqrt(L.grid.weight)
        return float(spec.get("scale", 1.0)) * field
    raise ValueError(f"unknown field kind {kind!r}")


class ExperimentConfig:
    """Validated configuration with builders for the runtime objects."""

    def __init__(self, data: dict):
        _validate_schema(data)
        self.data = copy.deepcopy({**data, **{section: {**defaults, **data.get(section, {})}
                                              for section, defaults in _DEFAULTS.items()}})
        self._cross_checks()

    @classmethod
    def load(cls, path=None, assignments=()) -> "ExperimentConfig":
        """The JSON at path (the bundled default when None) with the dotted-path
        assignments applied to it, validated and cross-checked once."""
        if path is None:
            data = default_config_dict()
        else:
            try:
                with open(path) as fh:
                    data = json.load(fh)
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {path}")
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}")
        for item in assignments:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form path=value")
            dotted, raw = item.split("=", 1)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            node, keys = data, dotted.split(".")
            for key in keys[:-1]:
                node = node.setdefault(key, {}) if isinstance(node, dict) else None
            if not isinstance(node, dict):
                raise ConfigError(f"override path {dotted!r} crosses a non-object")
            node[keys[-1]] = value
        return cls(data)

    @property
    def digest(self) -> str:
        """Hash of the experiment-defining fields; the output directory is
        excluded so runs into different directories stay comparable."""
        run = {k: v for k, v in self.data["run"].items() if k != "output_dir"}
        canonical = json.dumps({**self.data, "run": run}, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- cross-section rules -------------------------------------------------

    def _cross_checks(self):
        beta = self.data["beta"]
        n_modes = len(self.data["noise"]["modes"])
        gates = (self.graph(), beta["lambda"], beta["allow_nonsurjective"])
        rules = (("beta", check_gates, gates), ("sweep", check_lambdas, (self.sweep_lambdas(),)),
                 ("generalized", check_levels, (self.generalized_levels(),)))
        for section, rule, args in rules:
            with _section(section):
                rule(*args)
        diff = self.data["diffusion"]
        key = "modes" if diff["variant"] == "constant_additive" else "coeffs"
        with _section("diffusion"):
            count = len(diff["params"].get(key, []))
        if count != n_modes:
            raise ConfigError(f"config diffusion/params/{key}: needs {n_modes} entries "
                              f"(one per noise mode), got {count}")

    # -- builders ------------------------------------------------------------

    def laplacian(self):
        g = self.data["grid"]
        with _section("grid"):
            return build_laplacian(make_grid(g["dim"], g["n"], g["length"]), g["node_cap"])

    def graph(self):
        beta = self.data["beta"]
        return _construct(_GRAPHS[beta["variant"]], beta["params"], "beta")

    def noise_spec(self) -> NoiseSpec:
        modes = []
        for m in self.data["noise"]["modes"]:
            law = m.get("jump_law")
            if law is not None:
                law = _construct(_JUMP_LAWS[law["kind"]], law, "noise")
            modes.append(_construct(NoiseMode, m, "noise", jump_law=law))
        return NoiseSpec(modes=tuple(modes))

    def diffusion(self, L):
        diff = self.data["diffusion"]
        params = diff["params"]
        with _section("diffusion"):
            if diff["variant"] == "constant_additive":
                return ConstantAdditive(fields=np.stack([_build_field(fs, L)
                                                         for fs in params["modes"]]))
            coeffs, gamma = np.asarray(params["coeffs"], dtype=float), float(diff["gamma"])
            if diff["variant"] == "linear_spectral":
                return LinearSpectral(coeffs=coeffs, gamma=gamma)
            return SmoothedNemytskii(coeffs=coeffs, gamma=gamma,
                                     transform=params.get("transform", "tanh"))

    def initial_field(self, L) -> np.ndarray:
        with _section("initial"):
            return _build_field(self.data["initial"], L)

    def solver_config(self) -> SolverConfig:
        beta, s = self.data["beta"], self.data["solver"]
        # the schema's integers may arrive as 50.0, which range() refuses
        counts = {k: int(s[k]) for k in ("newton_max_iter", "picard_max_iter")}
        with _section("solver"):
            return SolverConfig(**{**s, **counts}, lam=float(beta["lambda"]), dt=self.dt,
                                allow_nonsurjective=beta["allow_nonsurjective"])

    def sweep_lambdas(self):
        return list(self.data.get("sweep", {}).get("lambdas", _DEFAULT_SWEEP))

    def generalized_levels(self):
        return list(self.data.get("generalized", {}).get("levels", _DEFAULT_LEVELS))

    @property
    def horizon(self) -> float:
        return float(self.data["noise"]["T"])

    @property
    def dt(self) -> float:
        return float(self.data["noise"]["dt"])

    @property
    def n_paths(self) -> int:
        return int(self.data["run"]["n_paths"])

    @property
    def master_seed(self) -> int:
        return int(self.data["run"]["master_seed"])

    @property
    def output_dir(self) -> str:
        return self.data["run"]["output_dir"]
