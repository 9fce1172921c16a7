"""Command line driver for batch experiments.

Subcommands: simulate-additive, simulate-multiplicative, generalized,
lambda-sweep, verify-all, mollify-demo. ``load_config`` hands --config (bundled
default when omitted), the dotted-path --set overrides and the
--seed/--paths/--out shortcuts to ``ExperimentConfig.load``, which applies the
overrides before it validates. ``main`` builds one context from that config. A
command only computes: it returns its CSV tables as ``{file name: (header,
columns)}``, one 1-D numpy array or list per header name, with its summary
lines, exit code and stdout-only suffixes. ``main`` is the one writer: it
stamps every file with the provenance line, writes each table through
``reporting.write_csv`` and then ``summary.txt``, with ``command: <name>``
first, and prints the summary.

Exit codes: 0 success / all checks passed, 1 a check or assertion failed,
2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import zip_longest

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError, SolverError
from .grid import hminus1_norm_sq_rows, mollify
from .noise import (
    ConstantOperator,
    StepOperator,
    lipschitz_constant,
    sample_ensemble,
    stochastic_integrals,
)
from .reporting import fmt_value, provenance_line, report_table, write_csv, write_summary
from .solver import (
    additive_solve,
    contraction_time_limit,
    generalized_solve,
    lambda_sweep,
    picard_solve,
    strong_identity_residual,
    trajectory_diagnostics,
)
from .verify import (
    check_apriori,
    check_contraction,
    check_doob,
    check_isometry,
    check_lipschitz_map,
    check_resta,
)

_COMMANDS = {}


def _command(name, help_text):
    """Register a command and its help text: it takes a _Context and returns
    ({file name: (header, columns)}, summary lines, exit code, stdout-only suffixes)."""
    def wrap(fn):
        _COMMANDS[name] = (fn, help_text)
        return fn
    return wrap


class _Context:
    """The pieces of one experiment, built once from its config."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.L = cfg.laplacian()
        self.graph = cfg.graph()
        self.spec = cfg.noise_spec()
        self.scfg = cfg.solver_config()
        self.x0 = cfg.initial_field(self.L)
        self.B = cfg.diffusion(self.L)

    def frozen_integral(self, seed):
        """Path 0 under seed as a one-row ensemble, and its held integral of the
        coefficient frozen at the datum."""
        ens = sample_ensemble(self.spec, self.cfg.horizon, self.cfg.dt, 1, seed)
        op = ConstantOperator(self.B.mode_fields(self.x0, self.L))
        return ens, stochastic_integrals(op, ens, self.L)


def _time_text(times):
    """Each time as its %.17g byte string, so a column that repeats it formats it once."""
    return np.array(["%.17g" % t for t in times.tolist()], dtype="S")


def _trajectory_table(traj):
    m, n = traj.states.shape
    return ["time", "node", "state", "selection"], [
        np.repeat(_time_text(traj.times), n), np.tile(np.arange(n), m),
        traj.states.ravel(), traj.selections.ravel()]


@_command("simulate-additive", "single-path solve with the coefficient frozen at the datum")
def _cmd_simulate_additive(ctx: _Context):
    L, x0 = ctx.L, ctx.x0
    ens, gm = ctx.frozen_integral(ctx.cfg.master_seed)
    traj = additive_solve(ctx.graph, ctx.scfg, L, x0, ens.times, gm)

    diag = trajectory_diagnostics(traj, ctx.graph, L)
    resid = strong_identity_residual(traj, gm, x0, L)
    values = ens.values[0].T  # (K, N+1), mode-major rows
    k, m = values.shape
    _, index, modes, _ = ens.jumps
    jumps = np.zeros((k, m), dtype=bool)
    jumps[modes, index] = True
    tables = {"trajectory.csv": _trajectory_table(traj.trajectories[0]),
              "martingale.csv": (["time", "mode", "value", "is_jump"], [
                  np.tile(_time_text(ens.times[0]), k), np.repeat(np.arange(k), m),
                  values.ravel(), jumps.ravel()])}
    lines = [
        f"horizon: {fmt_value(ctx.cfg.horizon)}",
        f"steps: {m - 1}",
        f"lambda: {fmt_value(ctx.scfg.lam)}",
        f"final_dual_norm: {fmt_value(float(diag['dual_norms'][0, -1]))}",
        f"potential_integral: {fmt_value(float(diag['potential_integral'][0]))}",
        f"conjugate_integral: {fmt_value(float(diag['conjugate_integral'][0]))}",
        f"max_identity_residual: {fmt_value(float(resid.max()))}",
    ]
    return tables, lines, 0, ()


@_command("simulate-multiplicative", "ensemble fixed-point solve with state-dependent noise")
def _cmd_simulate_multiplicative(ctx: _Context):
    cfg = ctx.cfg
    ens = sample_ensemble(ctx.spec, cfg.horizon, cfg.dt, cfg.n_paths, cfg.master_seed)
    res = picard_solve(ctx.graph, ctx.B, ctx.spec, ctx.scfg, ctx.L, ctx.x0, ens)

    rows = [(w, t0, t1, it, dist, factor)
            for w, ((t0, t1), dists, factors) in enumerate(
                zip(res.windows, res.window_distances, res.window_factors))
            for it, (dist, factor) in enumerate(zip(dists, [None, *factors]), 1)]
    sq = hminus1_norm_sq_rows(ctx.L, ens.at_base(res.states))
    tables = {
        "picard.csv": (["window", "t_start", "t_end", "iteration", "distance_sq", "factor"],
                       list(map(list, zip(*rows)))),
        "ensemble_norms.csv": (["time", "mean_sq_dual_norm"], [res.base_times, sq.mean(axis=0)]),
        "trajectory0.csv": _trajectory_table(res.trajectories[0]),
    }
    lines = [
        f"paths: {cfg.n_paths}",
        f"iterations: {res.iterations}",
        f"windows: {len(res.windows)}",
        f"window_length: {fmt_value(res.window_length)}",
        f"lipschitz_estimate: {fmt_value(res.lipschitz_estimate)}",
        f"converged: {fmt_value(res.converged)}",
    ]
    return tables, lines, 0, ()


@_command("generalized", "mollified solves of a rough coefficient with Cauchy distances")
def _cmd_generalized(ctx: _Context):
    cfg = ctx.cfg
    ens = sample_ensemble(ctx.spec, cfg.horizon, cfg.dt, cfg.n_paths, cfg.master_seed)
    res = generalized_solve(ctx.graph, ctx.B, ctx.scfg, ctx.L, ctx.x0, cfg.generalized_levels(),
                            ens)

    columns = [res.levels, [None, *res.sup_mean_distances], [None, *res.mean_sup_distances]]
    tables = {"levels.csv": (["level", "sup_mean_dist_prev", "mean_sup_dist_prev"], columns)}
    lines = [
        f"levels: {' '.join(str(n) for n in res.levels)}",
        f"cauchy_ok: {fmt_value(res.cauchy_ok)}",
    ]
    return tables, lines, 0 if res.cauchy_ok else 1, ()


@_command("lambda-sweep", "regularization sweep on one fixed path")
def _cmd_lambda_sweep(ctx: _Context):
    ens, gm = ctx.frozen_integral(ctx.cfg.master_seed)
    report = lambda_sweep(ctx.graph, ctx.scfg, ctx.L, ctx.x0, ens.times, gm,
                          ctx.cfg.sweep_lambdas())

    columns = [report.lambdas, [None, *report.sup_diffs], report.gap_integrals,
               report.gap_ratios, report.potential_integrals, report.conjugate_integrals]
    tables = {"sweep.csv": (["lambda", "sup_diff_prev", "gap_integral", "gap_ratio",
                             "potential_integral", "conjugate_integral"], columns)}
    lines = [
        f"lambdas: {len(report.lambdas)}",
        f"initial_norm_sq: {fmt_value(report.initial_norm_sq)}",
        f"max_gap_ratio: {fmt_value(float(report.gap_ratios.max()))}",
    ]
    return tables, lines, 0, ()


@_command("verify-all", "run every statistical check and report pass/fail")
def _cmd_verify_all(ctx: _Context):
    cfg, L, graph, spec, scfg = ctx.cfg, ctx.L, ctx.graph, ctx.spec, ctx.scfg
    x0, B = ctx.x0, ctx.B
    seed = cfg.master_seed
    horizon, n_paths = cfg.horizon, cfg.n_paths
    if n_paths < 2:  # verify-all checks ensembles: one path is refused, not lifted to a floor
        raise ConfigError(f"config run/n_paths: verify-all needs at least 2 paths, got {n_paths}")
    n_mc = max(100, n_paths)  # stability's floor: few samples make the 3-sigma band meaningless

    fields = B.mode_fields(x0, L)
    op_full = ConstantOperator(fields)
    op_half = ConstantOperator(0.5 * fields)
    op_pc = StepOperator([0.0, 0.5 * horizon, horizon],
                         np.stack([fields, 0.5 * fields]))

    ens, gm = ctx.frozen_integral(seed + 4)
    reports = [
        check_doob(spec, op_full, horizon, cfg.dt, n_mc, seed, L),
        check_isometry(spec, op_full, horizon, cfg.dt, n_mc, seed + 1, L),
        check_isometry(spec, op_pc, horizon, cfg.dt, n_mc, seed + 2, L),
        check_resta(graph, scfg, L, spec, (x0, op_full),
                    (0.5 * x0, op_half), horizon, max(100, n_paths // 2), seed + 3),
        check_apriori(graph, scfg, L, x0, ens.times, gm, cfg.sweep_lambdas()),
    ]
    k_est = lipschitz_constant(B, spec, L, seed=seed + 5)
    threshold = contraction_time_limit(k_est, scfg.epsilon)
    T0 = min(horizon, 0.5 * threshold) if np.isfinite(threshold) else horizon
    reports.append(check_contraction(graph, B, spec, scfg, L, x0, T0,
                                     max(50, n_paths // 2), seed + 5, k_est))
    reports.append(check_lipschitz_map(graph, B, spec, scfg, L, x0,
                                       x0 + 0.5 * np.roll(x0, 1) + 0.1,
                                       horizon, max(50, n_paths // 4), seed + 6))

    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: estimate={fmt_value(r.estimate)} "
             f"{'target' if r.kind == 'identity' else 'bound'}={fmt_value(r.bound_or_target)} "
             f"se={fmt_value(r.std_error)} paths={r.n_paths}" for r in reports]
    n_failed = sum(not r.passed for r in reports)
    lines.append(f"checks: {len(reports)} failed: {n_failed}")
    return ({"reports.csv": report_table(reports)}, lines, 0 if n_failed == 0 else 1,
            [f" runtime={r.runtime_s:.2f}s" for r in reports])


@_command("mollify-demo", "mollifier contraction and convergence table")
def _cmd_mollify_demo(ctx: _Context):
    L, levels = ctx.L, [1, 2, 4, 8, 16, 32]
    rough = np.random.default_rng(ctx.cfg.master_seed).standard_normal(L.n)
    smoothed = np.stack([mollify(rough, level, L) for level in levels])
    norms = np.sqrt(hminus1_norm_sq_rows(L, np.concatenate([rough[None, :], smoothed - rough,
                                                            smoothed])))
    defects, ratios = norms[1:len(levels) + 1], norms[len(levels) + 1:] / norms[0]
    ok = bool(np.all(ratios <= 1.0 + 1e-12) and np.all(np.diff(defects) <= 0.0))
    tables = {"mollify.csv": (["level", "defect_dual_norm", "norm_ratio"],
                              [levels, defects, ratios])}
    return tables, [f"contraction_and_decrease: {fmt_value(ok)}"], 0 if ok else 1, ()


# (flag, run key, type) of the shortcuts that load_config turns into run.<key> overrides
_RUN_SHORTCUTS = (("seed", "master_seed", int), ("paths", "n_paths", int),
                  ("out", "output_dir", str))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spmlab",
        description="Batch experiments for a jump-driven nonlinear diffusion solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="path to a JSON config (bundled default if omitted)")
        sp.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="PATH=VALUE", help="dotted-path override, repeatable")
        for flag, key, kind in _RUN_SHORTCUTS:
            sp.add_argument(f"--{flag}", type=kind, help=f"override run.{key}")
    return parser


def load_config(args) -> ExperimentConfig:
    shortcuts = [f"run.{key}={json.dumps(getattr(args, flag))}"
                 for flag, key, _ in _RUN_SHORTCUTS if getattr(args, flag) is not None]
    return ExperimentConfig.load(args.config, [*args.overrides, *shortcuts])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        tables, lines, code, suffixes = _COMMANDS[args.command][0](_Context(cfg))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3
    prov = provenance_line(cfg.digest, cfg.master_seed)
    for name, (header, columns) in tables.items():
        write_csv(os.path.join(cfg.output_dir, name), header, columns, prov)
    lines = [f"command: {args.command}", *lines]
    write_summary(os.path.join(cfg.output_dir, "summary.txt"), lines, prov)
    print("\n".join(line + suffix
                    for line, suffix in zip_longest(lines, ["", *suffixes], fillvalue="")))
    return code


if __name__ == "__main__":
    sys.exit(main())
