"""A mutation net for the march: the strong-identity residual of a one-path
solve must see each of three planted defects, and the causal pass must see
two planted defects of ``picard_solve``.

Each defect is applied by monkeypatch: the drift at half or zero of its value
and slope (the selection kept), the driving integral handed to
``march_batch`` one row late, and a copy of ``picard_solve`` that takes the
coefficient at the right end of each step. The clean residual sits at rounding
level, and every defect lifts it by many orders of magnitude.
"""

import inspect

import numpy as np
import pytest

import spmlab.solver as solver
from spmlab.cli import _Context, main
from spmlab.config import ExperimentConfig
from spmlab.grid import hminus1_norm_sq_rows
from spmlab.noise import sample_ensemble
from spmlab.solver import additive_solve, causal_solve, strong_identity_residual

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

    def lagged(graph, cfg, L, times, gm, x0, *args, **kwargs):
        gm = np.asarray(gm, dtype=float)
        return march(graph, cfg, L, times, np.concatenate([gm[:, :1], gm[:, :-1]], axis=1),
                     x0, *args, **kwargs)
    monkeypatch.setattr(solver, "march_batch", lagged)


def _right_end_picard(monkeypatch):
    # an anticipating scheme: the coefficient of step i taken at X_i, not X_{i-1}
    source = inspect.getsource(solver.picard_solve)
    assert source.count("iterate[:, :-1][live]") == 1
    namespace = dict(vars(solver))
    exec(source.replace("iterate[:, :-1][live]", "iterate[:, 1:][live]"), namespace)
    monkeypatch.setattr(solver, "picard_solve", namespace["picard_solve"])


DEFECTS = {
    "clean": lambda mp: None,
    "half-drift": lambda mp: mp.setattr(solver, "_drift", _scaled_drift(0.5)),
    "zero-drift": lambda mp: mp.setattr(solver, "_drift", _scaled_drift(0.0)),
    "lagged-integral": _lagged_march,
}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("config", CONFIGS)
def test_identity_residual_sees_each_defect(monkeypatch, config, defect):
    ctx = _Context(ExperimentConfig.load(None, CONFIGS[config]))
    ens, gm = ctx.frozen_integral(ctx.cfg.master_seed)
    DEFECTS[defect](monkeypatch)
    traj = additive_solve(ctx.graph, ctx.scfg, ctx.L, ctx.x0, ens.times, gm)
    residual = float(strong_identity_residual(traj, gm, ctx.x0, ctx.L).max())
    if defect == "clean":
        assert residual <= 1e-12
    else:
        assert residual >= 1e-4


PICARD_DEFECTS = {
    "clean": lambda mp: None,
    "right-end-coefficient": _right_end_picard,
    "lagged-integral": _lagged_march,
}
# largest squared dual distance between Picard and the causal pass over paths
# and times; on these 16 paths it reads about 2e-13 clean, 1e-7 with the
# right-end coefficient and 5e-5 with the lag
ORACLE_BOUND = 1e-9


@pytest.mark.parametrize("defect", PICARD_DEFECTS)
def test_causal_pass_is_an_oracle_for_picard(monkeypatch, defect):
    ctx = _Context(ExperimentConfig.load())
    ens = sample_ensemble(ctx.spec, ctx.cfg.horizon, ctx.cfg.dt, 16, ctx.cfg.master_seed)
    oracle = causal_solve(ctx.graph, ctx.B, ctx.scfg, ctx.L, ctx.x0, ens)
    PICARD_DEFECTS[defect](monkeypatch)
    res = solver.picard_solve(ctx.graph, ctx.B, ctx.spec, ctx.scfg, ctx.L, ctx.x0, ens)
    gap = float(hminus1_norm_sq_rows(ctx.L, res.states - oracle.states).max())
    if defect == "clean":
        assert gap < ORACLE_BOUND
    else:
        assert gap > ORACLE_BOUND


def test_one_patch_reaches_every_march_of_verify_all(monkeypatch, tmp_path):
    # verify calls the march through the solver module, so patching
    # solver.march_batch alone reaches the apriori sweep, stability, contraction
    # and lipschitz_map. verify-all still passes under the lag (ROADMAP item 1),
    # so its exit code is not asserted here
    _lagged_march(monkeypatch)
    lagged, calls = solver.march_batch, []
    monkeypatch.setattr(solver, "march_batch",
                        lambda *args, **kwargs: calls.append(1) or lagged(*args, **kwargs))
    main(["verify-all", "--paths", "8", "--out", str(tmp_path / "out")])
    assert len(calls) == 4
