"""A mutation net for the march: the strong-identity residual of a single-path
solve must see each of three planted defects.

Each defect is applied by monkeypatch: the drift at half or zero of its value
and slope (the selection kept), and the driving integral handed to
``march_batch`` one row late. The clean residual sits at rounding level, and
every defect lifts it by many orders of magnitude.
"""

import numpy as np
import pytest

import spmlab.solver as solver
from spmlab.cli import _Context
from spmlab.config import ExperimentConfig
from spmlab.solver import additive_path_solve, strong_identity_residual

CONFIGS = {
    "default": [],
    "stefan": ["beta.variant=stefan"],
    "linear-lambda0": ["beta.variant=linear", "beta.lambda=0"],
}


def _scaled_drift(factor):
    drift = solver._drift

    def scaled(graph, lam, u):
        value, slope, sel = drift(graph, lam, u)
        return factor * value, factor * slope, sel
    return scaled


def _lagged_march(monkeypatch):
    march = solver.march_batch

    def lagged(graph, cfg, L, times, gm, x0, lam=None):
        gm = np.asarray(gm, dtype=float)
        return march(graph, cfg, L, times, np.concatenate([gm[:, :1], gm[:, :-1]], axis=1),
                     x0, lam)
    monkeypatch.setattr(solver, "march_batch", lagged)


DEFECTS = {
    "clean": lambda mp: None,
    "half-drift": lambda mp: mp.setattr(solver, "_drift", _scaled_drift(0.5)),
    "zero-drift": lambda mp: mp.setattr(solver, "_drift", _scaled_drift(0.0)),
    "lagged-integral": _lagged_march,
}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("config", CONFIGS)
def test_identity_residual_sees_each_defect(monkeypatch, config, defect):
    ctx = _Context(ExperimentConfig.default().apply_overrides(CONFIGS[config]))
    _, gm = ctx.frozen_integral(ctx.cfg.master_seed)
    DEFECTS[defect](monkeypatch)
    traj = additive_path_solve(ctx.graph, ctx.scfg, ctx.L, ctx.x0, gm)
    residual = float(strong_identity_residual(traj, gm, ctx.x0, ctx.L).max())
    if defect == "clean":
        assert residual <= 1e-12
    else:
        assert residual >= 1e-4
