"""CSV and summary writers.

Every output file starts with a provenance comment line carrying the config
hash and the master seed, then a header row. Floats are rendered with 17
significant digits so identical runs produce byte-identical files; nothing
time- or host-dependent is written.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence


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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], provenance: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(provenance + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(fmt_value, row)) + "\n")


def write_summary(path, lines: Sequence[str], provenance: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(provenance + "\n")
        for line in lines:
            fh.write(line + "\n")


def report_table(reports) -> tuple[list[str], list[tuple]]:
    """Rows for a verification report CSV; runtimes stay out of the files so
    repeated runs are byte-identical."""
    header = ["name", "kind", "estimate", "std_error", "bound_or_target",
              "margin_sigmas", "verdict", "n_paths", "notes"]
    rows = [
        (r.name, r.kind, r.estimate, r.std_error, r.bound_or_target,
         r.margin_sigmas, r.verdict, r.n_paths, r.notes.replace(",", ";"))
        for r in reports
    ]
    return header, rows
