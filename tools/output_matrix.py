"""Run a fixed matrix of spmlab commands and keep every output file.

    PYTHONPATH=src python tools/output_matrix.py OUT_DIR

Each run calls ``spmlab.cli.main`` in this process and writes its files to
``OUT_DIR/<name>``; the exit codes are printed and written to
``OUT_DIR/exit_codes.txt``. The runtimes that some commands print go to the
terminal only, so two matrices of the same outputs are equal file for file.
The script uses whichever ``spmlab`` is first on ``PYTHONPATH``: run it once
with the ``src`` of each of two checkouts and compare with ``diff -r``, or
pass the first matrix to the second run:

    PYTHONPATH=src python tools/output_matrix.py OUT_DIR --against PARENT_DIR

which prints, per CSV file and column that differ, the largest relative and
absolute difference, and exits 1 when the two differ in their file sets,
exit codes, a CSV header or row count, a non-numeric cell or a file that is
not CSV. A ``summary.txt`` is compared token by token: its numbers as CSV
cells, reported under the word before them (``estimate=...``, ``key: value``),
and its provenance line and all other text exactly.

    PYTHONPATH=src python tools/output_matrix.py OUT_DIR --write-fingerprint PATH

also writes the matrix's fingerprint (``fingerprint``) as JSON to PATH; the
committed one, ``tests/data/output_fingerprint.json``, is what the test suite
compares a fresh matrix with (``fingerprint_mismatches``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import sys
from importlib import resources

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import WORKLOADS, command_line  # noqa: E402

# the bundled default config of the spmlab on PYTHONPATH, read as a file
DEFAULT_CONFIG = str(resources.files("spmlab.data").joinpath("default_config.json"))
# a fingerprint number may move by this fraction of its column's largest magnitude,
# which absorbs last-bit BLAS differences and cancellation in sums near zero
FINGERPRINT_RTOL = 1e-9
_STATS = ("sum", "abs_sum", "min", "max")
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
    # a config file plus overrides: the file branch of ExperimentConfig.load
    ("multiplicative-file", ["simulate-multiplicative", "--config", DEFAULT_CONFIG,
                             "--paths", "40", "--set", "noise.T=0.125"]),
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


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _report(label: str, cells: list) -> tuple[str, bool]:
    """Report line for differing (old, new) cell texts, and whether all are numbers."""
    try:
        x, y = np.array(cells, dtype=float).T
    except ValueError:
        return f"{label}: non-numeric cells differ", False
    diff = np.abs(x - y)
    rel = np.divide(diff, np.maximum(np.abs(x), np.abs(y)), out=np.zeros_like(diff),
                    where=diff > 0)
    return f"{label}: {len(cells)} cells, max rel {rel.max():.3g}, max abs {diff.max():.3g}", True


def _summary_tokens(text: bytes) -> list[list[str]]:
    """A summary's lines, each split into its words and numbers with the separators
    between them; the key of token i is token ``max(i - 2, 0)``, the token before the
    separator before it (the key of ``key=value`` and ``key: value``)."""
    return [re.split(r"([\s=:]+)", line) for line in text.decode().splitlines()]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _summary_cells(old: bytes, new: bytes) -> dict | None:
    """Differing tokens of two summaries, as (old, new) texts by their key, or None
    when their provenance lines or token counts differ."""
    old, new = _summary_tokens(old), _summary_tokens(new)
    if old[:1] != new[:1] or [len(t) for t in old] != [len(t) for t in new]:
        return None
    cells = {}
    for a, b in zip(old, new):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                cells.setdefault(a[max(i - 2, 0)], []).append((x, y))
    return cells


def compare(old_dir: str, new_dir: str) -> tuple[list[str], bool]:
    """Report lines, and whether new_dir differs from old_dir in numeric cells only.

    A CSV file is its provenance line, a header and rows; a differing file of
    another kind, provenance, header or row count is not numeric. A summary
    is its provenance line and lines of words, separators and numbers."""
    old_files, new_files = _files(old_dir), _files(new_dir)
    lines = [f"only in {d}: {f}" for d, only in ((old_dir, old_files - new_files),
                                                 (new_dir, new_files - old_files))
             for f in sorted(only)]
    numeric = not lines
    for name in sorted(old_files & new_files):
        old, new = (_read(os.path.join(d, name)) for d in (old_dir, new_dir))
        if old == new:
            continue
        if os.path.basename(name) == "summary.txt":
            cells = _summary_cells(old, new)
            reports = [_report(f"{name} {key}", pairs) for key, pairs in (cells or {}).items()]
            if cells is None or not all(is_numeric for _, is_numeric in reports):
                numeric = False
                lines.append(f"{name}: differs")
            else:
                lines += [line for line, _ in reports]
            continue
        if not name.endswith(".csv"):
            numeric = False
            lines.append(f"{name}: differs")
            continue
        old, new = (list(csv.reader(io.StringIO(t.decode()))) for t in (old, new))
        if old[:2] != new[:2] or len(old) != len(new):
            numeric = False
            lines.append(f"{name}: " + ("header differs" if old[:2] != new[:2] else
                                        f"{len(old) - 2} -> {len(new) - 2} rows"))
            continue
        for column, a, b in zip(old[1], zip(*old[2:]), zip(*new[2:])):
            cells = [(x, y) for x, y in zip(a, b) if x != y]
            if cells:
                line, is_numeric = _report(f"{name} {column}", cells)
                numeric &= is_numeric
                lines.append(line)
    return lines, numeric


def _column_print(cells) -> dict:
    """The count of a column's numeric cells with their sum, sum of |x|, min and
    max at %.17g, and how often each other text (an empty cell, a verdict) occurs."""
    numbers, texts = [], {}
    for cell in cells:
        try:
            numbers.append(float(cell))
        except ValueError:
            texts[cell] = texts.get(cell, 0) + 1
    x = np.array(numbers)
    stats = (x.sum(), np.abs(x).sum(), x.min(), x.max()) if numbers else ()
    return {"count": len(numbers), **{k: "%.17g" % v for k, v in zip(_STATS, stats)},
            "texts": texts}


def _summary_print(text: bytes) -> dict:
    """A summary's provenance line, its other lines with each number replaced by
    ``<num>``, its keys in the order they first hold a number, and a
    ``_column_print`` of each key's numbers."""
    provenance, *rest = _summary_tokens(text) or [[]]
    lines, numbers = ["".join(provenance)], {}
    for tokens in rest:
        for i, token in enumerate(tokens):
            if _is_number(token):
                numbers.setdefault(tokens[max(i - 2, 0)], []).append(token)
        lines.append("".join("<num>" if _is_number(t) else t for t in tokens))
    return {"text": lines, "header": list(numbers),
            "columns": [_column_print(cells) for cells in numbers.values()]}


def fingerprint(out_dir: str) -> dict:
    """A matrix summarised: its exit codes, file names, per CSV file the header,
    the row count and a ``_column_print`` of each column, and per summary its
    ``_summary_print``."""
    with open(os.path.join(out_dir, "exit_codes.txt")) as fh:
        codes = dict(line.split() for line in fh)
    files = {}
    for name in sorted(_files(out_dir) - {"exit_codes.txt"}):
        files[name] = None
        text = _read(os.path.join(out_dir, name))
        if name.endswith(".csv"):  # the provenance line, the header, then rows
            _, header, *rows = csv.reader(io.StringIO(text.decode()))
            files[name] = {"header": header, "rows": len(rows),
                           "columns": [_column_print(cells) for cells in zip(*rows)]}
        elif os.path.basename(name) == "summary.txt":
            files[name] = _summary_print(text)
    return {"exit_codes": codes, "files": files}


def fingerprint_mismatches(expected: dict, actual: dict) -> list[str]:
    """What differs between two fingerprints: any exit code, file name, header,
    row count, summary text, cell count or text, or a number by more than
    FINGERPRINT_RTOL of its column's (a summary key's) largest magnitude in
    ``expected``."""
    if expected["exit_codes"] != actual["exit_codes"]:
        return [f"exit codes {expected['exit_codes']} -> {actual['exit_codes']}"]
    lines = [f"only in {side}: {name}" for side, a, b in (("expected", expected, actual),
                                                          ("actual", actual, expected))
             for name in sorted(a["files"].keys() - b["files"].keys())]
    for name in sorted(expected["files"].keys() & actual["files"].keys()):
        old, new = expected["files"][name], actual["files"][name]
        if old is None or new is None or {**old, "columns": 0} != {**new, "columns": 0}:
            if old != new:
                what = "text" if old and "text" in old else "header or row count"
                lines.append(f"{name}: {what} differs")
            continue
        for column, a, b in zip(old["header"], old["columns"], new["columns"]):
            if (a["count"], a["texts"]) != (b["count"], b["texts"]):
                lines.append(f"{name} {column}: cell count or texts differ")
            elif a["count"]:
                scale = max(abs(float(a["min"])), abs(float(a["max"])))
                moved = max(abs(float(a[k]) - float(b[k])) for k in _STATS)
                if not moved <= FINGERPRINT_RTOL * scale:  # NaN moves too
                    lines.append(f"{name} {column}: moved by {moved:.3g} of {scale:.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--against", metavar="DIR",
                        help="an earlier matrix to compare the outputs with, cell by cell")
    parser.add_argument("--write-fingerprint", metavar="PATH",
                        help="write the matrix's fingerprint as JSON to PATH")
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
    if args.write_fingerprint is not None:
        with open(args.write_fingerprint, "w") as fh:
            json.dump(fingerprint(args.out_dir), fh, indent=1)
            fh.write("\n")
    if args.against is None:
        return 0
    lines, numeric = compare(args.against, args.out_dir)
    print("\n".join(lines) if lines else f"every file equals the one in {args.against}")
    return 0 if numeric else 1


if __name__ == "__main__":
    sys.exit(main())
