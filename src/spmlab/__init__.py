"""Desk-scale laboratory for jump-driven stochastic porous media equations.

Core pieces: a dense Dirichlet Laplacian with closed-form, canonically ordered
eigenpairs and its dual-norm geometry, maximal monotone graphs with resolvents
and Yosida regularization, a finite-mode jump martingale model with exact-grid
stochastic integration, pathwise implicit solvers (additive, fixed-point
multiplicative, mollified generalized), and a Monte Carlo verification harness
that turns the governing estimates into seeded pass/fail checks.
"""

from .errors import ConfigError, NonContractionError, SolverError
from .grid import (
    build_laplacian,
    eigenmode,
    hminus1_norm_sq_rows,
    inner_hminus1,
    inner_l2,
    make_grid,
    mollify,
    norm_hminus1,
    smooth_gamma,
    solve_laplacian,
)
from .monotone import Linear, PowerLaw, ScaledSignum, StefanPiecewise
from .noise import (
    ConstantAdditive,
    ConstantOperator,
    LinearSpectral,
    MollifiedDiffusion,
    NoiseMode,
    NormalJumps,
    SmoothedNemytskii,
    StepOperator,
    TwoPointJumps,
    lipschitz_constant,
    make_noise_spec,
    realized_qv,
    rng_for,
    sample_ensemble,
    sample_path,
    stochastic_integral,
    stochastic_integrals,
    uniform_times,
)
from .solver import (
    SolverConfig,
    additive_path_solve,
    additive_solve,
    causal_solve,
    contraction_time_limit,
    ensemble_mean_sup_sq,
    generalized_solve,
    implicit_step,
    ito_residual,
    lambda_sweep,
    march_batch,
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
    expected_quadratic_budget,
)
from .config import ExperimentConfig

__version__ = "0.1.0"
