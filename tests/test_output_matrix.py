import importlib.util
import os

import spmlab.cli as cli

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "output_matrix.py")


def test_output_matrix_command_lines_parse():
    # every run of the byte-identity matrix is a valid command line that writes
    # to a directory of its own; nothing is run
    spec = importlib.util.spec_from_file_location("output_matrix", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = tool.runs("matrix")
    assert len(runs) == 16
    assert len({name for name, _ in runs}) == 16
    parser = cli.build_parser()
    for name, argv in runs:
        args = parser.parse_args(argv)
        assert args.out == os.path.join("matrix", name)
        assert cli.load_config(args).output_dir == os.path.join("matrix", name)
