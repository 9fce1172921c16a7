"""The benchmark's workloads: one spmlab command line each.

Every workload starts from the bundled default experiment (1D, n=15, power
law m=3, lambda=0.05, two jump modes, linear-spectral coefficient, first
eigenmode as the datum) and changes only what is listed here. The benchmark
seed becomes the program's ``run.master_seed``; nothing else depends on it.
This module uses the standard library only, so that importing it adds nothing
to the measured set-up time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    command: str
    paths: int
    settings: tuple[str, ...]


WORKLOADS = {
    # verify-all keeps floors of 100/50/50 paths in stability, contraction
    # and lipschitz_map, so --paths 100 costs the same as any smaller count;
    # the horizon sets the length of every path and hence the run time.
    "verify-1d": Workload(
        command="verify-all",
        paths=100,
        settings=("noise.T=0.03125",),
    ),
    # the first eigenmode of the 2D grid is a simple eigenvalue, so the datum
    # does not depend on the LAPACK eigenbasis
    "multiplicative-2d": Workload(
        command="simulate-multiplicative",
        paths=4,
        settings=("grid.dim=2", "grid.n=16"),
    ),
    "additive-long-1d": Workload(
        command="simulate-additive",
        paths=1,
        settings=("noise.T=16",),
    ),
}

# smallest inputs that still exercise every check, for the benchmark's tests
TINY = {
    "verify-1d": ("noise.T=0.015625",),
    "multiplicative-2d": ("grid.n=6", "noise.T=0.0625"),
    "additive-long-1d": ("noise.T=0.5",),
}


def command_line(name: str, seed: int, out_dir: str, extra=()) -> list[str]:
    """The spmlab argv for one run of workload ``name``."""
    w = WORKLOADS[name]
    argv = [w.command, "--seed", str(int(seed)), "--paths", str(w.paths), "--out", out_dir]
    for setting in w.settings + tuple(extra):
        argv += ["--set", setting]
    return argv
