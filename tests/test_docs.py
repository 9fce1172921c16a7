import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(capsys):
    # the documented sketch uses only the package's exports, so pruning them
    # cannot silently break it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = float(capsys.readouterr().out)
    assert np.isfinite(printed) and printed > 0.0
