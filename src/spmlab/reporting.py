"""CSV and summary writers.

Every output file starts with a provenance comment line carrying the config
hash and the master seed, then a header row. A table is ``(header, columns)``,
one 1-D numpy array or list per header name, all of one length. Floats get 17
significant digits so identical runs produce byte-identical files; nothing
time- or host-dependent is written.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

# per dtype kind of an array column: its % format and the values of a slice
_KINDS = {"f": ("%.17g", np.ndarray.tolist), "i": ("%d", np.ndarray.tolist),
          "b": ("%s", lambda part: np.where(part, "true", "false").tolist())}
_BY_VALUE = ("%s", lambda part: [fmt_value(v) for v in part])  # lists, other arrays
_CHUNK_ROWS = 2048  # rows per % call; any size writes the same bytes


def fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def provenance_line(digest: str, seed: int) -> str:
    return f"# spmlab config_sha256={digest} master_seed={seed}"


def write_csv(path, header: Sequence[str], columns: Sequence, provenance: str):
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {lengths}")
    specs = [_KINDS.get(getattr(c, "dtype", np.dtype("O")).kind, _BY_VALUE) for c in columns]
    row = ",".join(fmt for fmt, _ in specs) + "\n"
    width, n_rows = len(columns), max(lengths, default=0)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(provenance + "\n" + ",".join(header) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            values = [None] * (min(_CHUNK_ROWS, n_rows - start) * width)
            for j, (column, (_, convert)) in enumerate(zip(columns, specs)):
                values[j::width] = convert(column[start:start + _CHUNK_ROWS])
            fh.write(row * (len(values) // width) % tuple(values))


def write_summary(path, lines: Sequence[str], provenance: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(provenance + "\n")
        for line in lines:
            fh.write(line + "\n")


def report_table(reports) -> tuple[list[str], list[list]]:
    """Columns for a verification report CSV; runtimes stay out of the files
    so repeated runs are byte-identical."""
    header = ["name", "kind", "estimate", "std_error", "bound_or_target",
              "margin_sigmas", "verdict", "n_paths", "notes"]
    rows = [
        (r.name, r.kind, r.estimate, r.std_error, r.bound_or_target,
         r.margin_sigmas, r.verdict, r.n_paths, r.notes.replace(",", ";"))
        for r in reports
    ]
    return header, list(map(list, zip(*rows)))
