import numpy as np
import pytest

from spmlab.reporting import _CHUNK_ROWS, fmt_value, write_csv

PROV = "# spmlab config_sha256=0 master_seed=0"


def reference_csv(header, columns):
    """The file as a value-by-value writer makes it: one fmt_value per value
    and one join per row, arrays read through tolist() as Python scalars."""
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines = [PROV, ",".join(header), *(",".join(map(fmt_value, row)) for row in zip(*lists))]
    return "".join(line + "\n" for line in lines)


def written(tmp_path, header, columns):
    path = tmp_path / "table.csv"
    write_csv(str(path), header, columns, PROV)
    return path.read_bytes().decode()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e16, 2.0**53 + 2, 0.1, 1 / 3,
                  np.inf, -np.inf, np.nan]


def _tables():
    """(name, header, columns) of each table the writer is compared on."""
    n = len(SPECIAL_FLOATS)
    rng = np.random.default_rng(7)
    # random bit patterns cover every exponent, subnormals and nan payloads
    bits = rng.integers(0, 2**64, size=5000, dtype=np.uint64).view(np.float64)
    strings = ["a", "b c", "", "x;y", *(f"s{k}" for k in range(n - 4))]
    yield "special", ["x", "i", "u", "b", "pb", "opt", "s", "su", "ni", "obj"], [
        np.array(SPECIAL_FLOATS),
        np.array([0, -1, 2**62, -2**63, *range(n - 4)], dtype=np.int64),
        np.arange(n, dtype=np.uint8),
        np.arange(n) % 3 == 0,
        [bool(k % 2) for k in range(n)],
        [1.5, None, -0.0, *SPECIAL_FLOATS[3:]],
        strings,
        np.array(strings),
        [np.int64(k) - 3 for k in range(n)],
        np.array([None, True, 2, *SPECIAL_FLOATS[3:]], dtype=object),
    ]
    yield "bits", ["x"], [bits]
    yield "no_rows", ["t", "k", "flag", "note"], [
        np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), []]
    yield "no_columns", ["t"], []
    for size in (_CHUNK_ROWS - 1, _CHUNK_ROWS + 1):
        yield f"rows_{size}", ["t", "node", "state", "jump", "opt"], [
            np.linspace(0.0, 16.0, size), np.arange(size) % 15,
            rng.standard_normal(size), rng.random(size) < 0.1,
            [None if k % 5 == 0 else k / 7 for k in range(size)]]


TABLES = list(_tables())


@pytest.mark.parametrize("name, header, columns", TABLES, ids=[t[0] for t in TABLES])
def test_column_writer_matches_value_by_value_formatting(tmp_path, name, header, columns):
    assert written(tmp_path, header, columns) == reference_csv(header, columns)


def test_ragged_table_is_refused(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError, match=r"ragged\.csv: columns of unequal lengths \[3, 2\]"):
        write_csv(str(path), ["a", "b"], [np.arange(3.0), [1, 2]], PROV)
    assert not path.exists()
