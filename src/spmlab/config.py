"""Experiment configuration: JSON loading, schema validation, object builders.

Configs are plain JSON validated against the schema shipped in
``spmlab/data/experiment.schema.json``; defaults are merged in afterwards and
a handful of cross-section rules (mode counts, and the solver's surjectivity
and lam = 0 gates) are enforced here because they cannot be expressed in the
schema. Graphs, jump laws and noise modes are built by their own constructors
from the config entries that name one of their fields, so the defaults live
in one place.
Dotted-path overrides (``solver.picard_tol=1e-8``) re-validate the result.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import fields
from importlib import resources

import jsonschema
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
from .solver import SolverConfig, check_gates

# lam, dt and allow_nonsurjective come from the beta and noise sections
_DEFAULT_SOLVER = {f.name: f.default for f in fields(SolverConfig)
                   if f.name not in ("lam", "dt", "allow_nonsurjective")}
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


def _validate_schema(data: dict):
    validator = jsonschema.Draft7Validator(_schema())
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config {where}: {err.message}")


def _construct(cls, params: dict, section: str, **given):
    """cls built from the params entries that name one of its dataclass fields,
    as floats, plus the given keywords; other entries are ignored."""
    try:
        return cls(**{f.name: float(params[f.name]) for f in fields(cls)
                      if f.name in params and f.name not in given}, **given)
    except ValueError as err:
        raise ConfigError(f"config {section}: {err}")


def _build_field(spec: dict, L) -> np.ndarray:
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return np.zeros(L.n)
    if kind == "eigenmode":
        index = int(spec.get("index", 0))
        if index >= L.n:
            raise ConfigError(f"eigenmode index {index} out of range for {L.n} nodes")
        return float(spec.get("scale", 1.0)) * eigenmode(L, index)
    if kind == "spectral_random":
        rng = np.random.default_rng(int(spec.get("seed", 0)))
        decay = float(spec.get("decay", 0.0))
        coeff = rng.standard_normal(L.n) * L.eigenvalues ** (-0.5 * decay)
        field = (L.eigenvectors @ coeff) / np.sqrt(L.grid.weight)
        return float(spec.get("scale", 1.0)) * field
    raise ConfigError(f"unknown field kind {kind!r}")


class ExperimentConfig:
    """Validated configuration with builders for the runtime objects."""

    def __init__(self, data: dict):
        _validate_schema(data)
        merged = copy.deepcopy(data)
        merged.setdefault("initial", {"kind": "zero"})
        solver = dict(_DEFAULT_SOLVER)
        solver.update(merged.get("solver", {}))
        merged["solver"] = solver
        merged["grid"].setdefault("length", 1.0)
        merged["grid"].setdefault("node_cap", DEFAULT_NODE_CAP)
        merged["beta"].setdefault("params", {})
        merged["beta"].setdefault("lambda", 0.0)
        merged["beta"].setdefault("allow_nonsurjective", False)
        merged["diffusion"].setdefault("params", {})
        merged["diffusion"].setdefault("gamma", 1.0)
        merged["run"].setdefault("output_dir", "spmlab_out")
        self.data = merged
        self._laplacian = None
        self._cross_checks()

    # -- loading -----------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}")
        return cls(data)

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls(default_config_dict())

    def apply_overrides(self, assignments) -> "ExperimentConfig":
        """Return a new config with dotted-path assignments applied."""
        data = copy.deepcopy(self.data)
        for item in assignments:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form path=value")
            dotted, raw = item.split("=", 1)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            node = data
            keys = dotted.split(".")
            for key in keys[:-1]:
                node = node.setdefault(key, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"override path {dotted!r} crosses a non-object")
            node[keys[-1]] = value
        return ExperimentConfig(data)

    @property
    def digest(self) -> str:
        """Hash of the experiment-defining fields; the output directory is
        excluded so runs into different directories stay comparable."""
        stripped = copy.deepcopy(self.data)
        stripped["run"].pop("output_dir", None)
        canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- cross-section rules -------------------------------------------------

    def _cross_checks(self):
        beta = self.data["beta"]
        n_modes = len(self.data["noise"]["modes"])
        try:
            check_gates(self.graph(), beta["lambda"], beta["allow_nonsurjective"])
        except SolverError as err:
            raise ConfigError(f"config beta: {err}")
        diff = self.data["diffusion"]
        params = diff["params"]
        if diff["variant"] in ("linear_spectral", "smoothed_nemytskii"):
            coeffs = params.get("coeffs", [])
            if len(coeffs) != n_modes:
                raise ConfigError(
                    f"diffusion/params/coeffs needs {n_modes} entries "
                    f"(one per noise mode), got {len(coeffs)}"
                )
        if diff["variant"] == "constant_additive":
            fields = params.get("modes", [])
            if len(fields) != n_modes:
                raise ConfigError(
                    f"diffusion/params/modes needs {n_modes} field specs, got {len(fields)}"
                )

    # -- builders ------------------------------------------------------------

    def grid(self):
        g = self.data["grid"]
        try:
            return make_grid(g["dim"], g["n"], g["length"])
        except ValueError as err:
            raise ConfigError(f"config grid: {err}")

    def laplacian(self):
        if self._laplacian is None:
            grid = self.grid()
            try:
                self._laplacian = build_laplacian(grid, self.data["grid"]["node_cap"])
            except ValueError as err:
                raise ConfigError(f"config grid: {err}")
        return self._laplacian

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
        gamma = float(diff["gamma"])
        if diff["variant"] == "constant_additive":
            fields = np.stack([_build_field(fs, L) for fs in params["modes"]])
            return ConstantAdditive(fields=fields)
        if diff["variant"] == "linear_spectral":
            return LinearSpectral(coeffs=np.asarray(params["coeffs"], dtype=float), gamma=gamma)
        return SmoothedNemytskii(
            coeffs=np.asarray(params["coeffs"], dtype=float),
            gamma=gamma,
            transform=params.get("transform", "tanh"),
        )

    def initial_field(self, L) -> np.ndarray:
        return _build_field(self.data["initial"], L)

    def solver_config(self) -> SolverConfig:
        beta, s = self.data["beta"], self.data["solver"]
        # the schema's integers may arrive as 50.0, which range() refuses
        counts = {k: int(s[k]) for k in ("newton_max_iter", "picard_max_iter")}
        try:
            return SolverConfig(**{**s, **counts}, lam=float(beta["lambda"]), dt=self.dt,
                                allow_nonsurjective=beta["allow_nonsurjective"])
        except ValueError as err:
            raise ConfigError(f"config solver: {err}")

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
