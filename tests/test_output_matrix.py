import importlib.util
import json
import os

import pytest

import spmlab.cli as cli

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "output_matrix.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("output_matrix", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_matrix_command_lines_parse():
    # every run of the byte-identity matrix is a valid command line that writes
    # to a directory of its own; nothing is run
    runs = load_tool().runs("matrix")
    assert len(runs) == 17
    assert len({name for name, _ in runs}) == 17
    parser = cli.build_parser()
    for name, argv in runs:
        args = parser.parse_args(argv)
        assert args.out == os.path.join("matrix", name)
        assert cli.load_config(args).output_dir == os.path.join("matrix", name)


PROVENANCE = "# spmlab config_sha256=0 master_seed=1\n"
TABLE = PROVENANCE + "window,time,state,verdict\n0,0.5,1.25,pass\n0,1,-2e-3,pass\n"


def write_matrix(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


@pytest.mark.parametrize("changed, report", [
    ({}, []),
    ({"run/picard.csv": TABLE.replace("1.25", "1.2500000001").replace("-2e-3", "-0.002")},
     ["run/picard.csv state: 2 cells, max rel 8e-11, max abs 1e-10"]),
    ({"run/picard.csv": TABLE.replace("0.5", "0.75").replace("1.25", "1.5")},
     ["run/picard.csv time: 1 cells, max rel 0.333, max abs 0.25",
      "run/picard.csv state: 1 cells, max rel 0.167, max abs 0.25"]),
], ids=["identical", "one-cell", "two-columns"])
def test_compare_reports_numeric_differences(tmp_path, changed, report):
    # two hand-made matrices: per CSV file and column, the cells whose text
    # differs (-2e-3 against -0.002 counts, at a difference of 0) and the
    # largest relative and absolute difference
    files = {"run/picard.csv": TABLE, "run/summary.txt": "done\n", "exit_codes.txt": "run 0\n"}
    old = write_matrix(tmp_path / "old", files)
    new = write_matrix(tmp_path / "new", {**files, **changed})
    assert load_tool().compare(old, new) == (report, True)


@pytest.mark.parametrize("changed, report", [
    ({"run/extra.csv": TABLE}, "only in {new}: run/extra.csv"),
    ({"exit_codes.txt": "run 1\n"}, "exit_codes.txt: differs"),
    ({"run/summary.txt": "done twice\n"}, "run/summary.txt: differs"),
    ({"run/picard.csv": TABLE.replace("state", "x")}, "run/picard.csv: header differs"),
    ({"run/picard.csv": TABLE.replace("sha256=0", "sha256=1")}, "run/picard.csv: header differs"),
    ({"run/picard.csv": TABLE + "1,2,3,pass\n"}, "run/picard.csv: 2 -> 3 rows"),
    ({"run/picard.csv": TABLE.replace("1,-2e-3,pass", "1,-2e-3,fail")},
     "run/picard.csv verdict: non-numeric cells differ"),
    ({"run/picard.csv": TABLE.replace("1.25", "nope")},
     "run/picard.csv state: non-numeric cells differ"),
], ids=["file-set", "exit-code", "not-csv", "header", "provenance", "rows", "text", "non-numeric"])
def test_compare_refuses_what_is_not_numeric(tmp_path, changed, report):
    files = {"run/picard.csv": TABLE, "run/summary.txt": "done\n", "exit_codes.txt": "run 0\n"}
    old = write_matrix(tmp_path / "old", files)
    new = write_matrix(tmp_path / "new", {**files, **changed})
    assert load_tool().compare(old, new) == ([report.format(new=new)], False)


SUMMARY = PROVENANCE + "command: verify-all\n[PASS] doob: estimate=1.25 bound=2 se=1e-3 paths=100\n"


@pytest.mark.parametrize("changed, report, numeric", [
    ({"run/summary.txt": SUMMARY.replace("1.25", "1.2500000000000013")},
     ["run/summary.txt estimate: 1 cells, max rel 1.07e-15, max abs 1.33e-15"], True),
    ({"run/summary.txt": SUMMARY.replace("bound=2", "bound=2.5").replace("1e-3", "0.001")},
     ["run/summary.txt bound: 1 cells, max rel 0.2, max abs 0.5",
      "run/summary.txt se: 1 cells, max rel 0, max abs 0"], True),
    ({"run/summary.txt": SUMMARY.replace("[PASS]", "[FAIL]")}, ["run/summary.txt: differs"], False),
    ({"run/summary.txt": SUMMARY.replace("doob:", "doob=")}, ["run/summary.txt: differs"], False),
    ({"run/summary.txt": SUMMARY.replace("seed=1", "seed=2")}, ["run/summary.txt: differs"], False),
    ({"run/summary.txt": SUMMARY + "extra: 1\n"}, ["run/summary.txt: differs"], False),
    ({"exit_codes.txt": "run 1\n"}, ["exit_codes.txt: differs"], False),
], ids=["ulps", "two-keys", "word", "separator", "provenance", "lines", "exit-code"])
def test_compare_reads_summary_numbers_as_cells(tmp_path, changed, report, numeric):
    # a summary's numbers are compared as CSV cells, under the key before each;
    # its words, separators, provenance and line count, and exit_codes.txt, stay exact
    files = {"run/picard.csv": TABLE, "run/summary.txt": SUMMARY, "exit_codes.txt": "run 0\n"}
    old = write_matrix(tmp_path / "old", files)
    new = write_matrix(tmp_path / "new", {**files, **changed})
    assert load_tool().compare(old, new) == (report, numeric)


FINGERPRINT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                           "output_fingerprint.json")


def test_outputs_match_the_committed_fingerprint(tmp_path):
    # the whole matrix, run afresh and summarised: exit codes, file names,
    # headers, row counts, cell counts and texts exactly, and each column's
    # sum, sum of |x|, min and max within 1e-9 of its largest magnitude.
    # A change that moves outputs regenerates the file with --write-fingerprint
    tool = load_tool()
    assert tool.main([str(tmp_path)]) == 0
    with open(FINGERPRINT) as fh:
        expected = json.load(fh)
    assert tool.fingerprint_mismatches(expected, tool.fingerprint(str(tmp_path))) == []


@pytest.mark.parametrize("changed, report", [
    ({}, []),
    ({"run/picard.csv": TABLE.replace("1.25", "1.2500000000001")}, []),
    ({"run/picard.csv": TABLE.replace("1.25", "1.25000001")},
     ["run/picard.csv state: moved by 1e-08 of 1.25"]),
    ({"run/picard.csv": TABLE.replace("-2e-3", "nan")},
     ["run/picard.csv state: moved by nan of 1.25"]),
    ({"run/picard.csv": TABLE.replace("1,-2e-3,pass", "1,-2e-3,fail")},
     ["run/picard.csv verdict: cell count or texts differ"]),
    ({"run/picard.csv": TABLE + "1,2,3,pass\n"}, ["run/picard.csv: header or row count differs"]),
    ({"run/extra.csv": TABLE}, ["only in actual: run/extra.csv"]),
    ({"exit_codes.txt": "run 1\n"}, ["exit codes {'run': '0'} -> {'run': '1'}"]),
    ({"run/summary.txt": SUMMARY.replace("1.25", "1.2500000000001")}, []),
    ({"run/summary.txt": SUMMARY.replace("1.25", "1.25000001")},
     ["run/summary.txt estimate: moved by 1e-08 of 1.25"]),
    ({"run/summary.txt": SUMMARY.replace("[PASS]", "[FAIL]")}, ["run/summary.txt: text differs"]),
    ({"run/summary.txt": SUMMARY.replace("sha256=0", "sha256=1")},
     ["run/summary.txt: text differs"]),
], ids=["identical", "ulps", "moved", "nan", "text", "rows", "file-set", "exit-code",
        "summary-ulps", "summary-moved", "summary-word", "summary-provenance"])
def test_fingerprint_mismatches(tmp_path, changed, report):
    # numbers may move by 1e-9 of their column's (a summary key's) largest
    # magnitude; texts and counts may not move at all
    tool = load_tool()
    files = {"run/picard.csv": TABLE, "run/summary.txt": SUMMARY, "exit_codes.txt": "run 0\n"}
    old = write_matrix(tmp_path / "old", files)
    new = write_matrix(tmp_path / "new", {**files, **changed})
    assert tool.fingerprint_mismatches(tool.fingerprint(old), tool.fingerprint(new)) == report
