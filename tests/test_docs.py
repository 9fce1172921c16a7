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


def test_readme_module_names_resolve():
    # every backticked `module.name` that names an spmlab module must exist
    # there, so a rename cannot leave the README stale
    import importlib
    import pkgutil

    import spmlab

    modules = {m.name for m in pkgutil.iter_modules(spmlab.__path__)}
    refs = [(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text())
            if mod in modules]
    assert len(refs) >= 3
    missing = [f"{mod}.{name}" for mod, name in refs
               if not hasattr(importlib.import_module(f"spmlab.{mod}"), name)]
    assert missing == []


def _schema_property_names(node):
    names = set()
    if isinstance(node, dict):
        names.update(node.get("properties", {}))
        for value in node.values():
            names |= _schema_property_names(value)
    elif isinstance(node, list):
        for value in node:
            names |= _schema_property_names(value)
    return names


def test_readme_configuration_names_every_schema_key():
    import json

    schema = json.loads((README.parent / "src/spmlab/data/experiment.schema.json").read_text())
    text = README.read_text()
    section = text[text.index("### Configuration"):text.index("### Outputs")]
    backticked = set(re.findall(r"`(\w+)", section))
    names = _schema_property_names(schema)
    assert len(names) >= 40
    assert sorted(names - backticked) == []
