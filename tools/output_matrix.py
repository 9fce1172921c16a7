"""Run a fixed matrix of spmlab commands and keep every output file.

    PYTHONPATH=src python tools/output_matrix.py OUT_DIR

Each run calls ``spmlab.cli.main`` in this process and writes its files to
``OUT_DIR/<name>``; the exit codes are printed and written to
``OUT_DIR/exit_codes.txt``. The runtimes that some commands print go to the
terminal only, so two matrices of the same outputs are equal file for file.
The script uses whichever ``spmlab`` is first on ``PYTHONPATH``: run it once
with the ``src`` of each of two checkouts and compare with ``diff -r``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import WORKLOADS, command_line  # noqa: E402

# (name, argv without --out) of every run but the workloads; runs() adds --out after the command
COMMANDS = [
    ("simulate-additive", ["simulate-additive"]),
    ("simulate-multiplicative", ["simulate-multiplicative"]),
    ("generalized", ["generalized", "--paths", "40"]),
    ("lambda-sweep", ["lambda-sweep"]),
    ("verify-all", ["verify-all", "--paths", "40"]),
    ("mollify-demo", ["mollify-demo"]),
    # T0 = 1/8 on T = 1 gives 8 Picard windows
    ("multiplicative-windows", ["simulate-multiplicative", "--paths", "50", "--set", "noise.T=1",
                                "--set", "solver.window_T0=0.125"]),
    ("multiplicative-2d-6x6", ["simulate-multiplicative", "--paths", "30", "--set", "noise.T=1",
                               "--set", "grid.dim=2", "--set", "grid.n=6"]),
    ("additive-stefan", ["simulate-additive", "--set", "beta.variant=stefan"]),
    ("additive-linear-lambda0", ["simulate-additive", "--set", "beta.variant=linear",
                                 "--set", "beta.lambda=0"]),
]


def runs(out_dir: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run of the matrix, each writing to out_dir/name."""
    out = []
    for workload in WORKLOADS:
        for seed in (1, 5):
            name = f"{workload}-seed{seed}"
            out.append((name, command_line(workload, seed, os.path.join(out_dir, name))))
    for name, argv in COMMANDS:
        out.append((name, argv[:1] + ["--out", os.path.join(out_dir, name)] + argv[1:]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    args = parser.parse_args(argv)

    import spmlab.cli as cli

    print(f"spmlab from {os.path.dirname(os.path.abspath(cli.__file__))}")
    codes = []
    for name, command in runs(args.out_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(command)
        codes.append(f"{name} {code}")
        print(codes[-1], flush=True)
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "exit_codes.txt"), "w") as fh:
        fh.write("\n".join(codes) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
