"""Start-up guards, each run in a fresh interpreter.

Importing ``spmlab.cli`` must not import the ``scipy.linalg`` package, the
numpy submodules it drags in, ``scipy.fft`` or jsonschema, and a command run through
``cli.main`` must not import a numpy or scipy module on its own clock. The
LAPACK extension that ``solver`` loads from its file must be the one
``scipy.linalg`` uses, whichever of the two is imported first.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_fresh(code: str):
    """Run ``code`` in a new interpreter with spmlab's ``src`` and the benchmark's
    workloads on the path; returns the JSON of its last stdout line."""
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_scipy_linalg_and_numpy_extras_out():
    loaded = run_fresh("""
        import json, sys
        import spmlab.cli
        print(json.dumps(sorted(sys.modules)))
    """)
    assert "scipy.linalg._flapack" in loaded
    assert not {"scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma"} & set(loaded)
    # the Laplacian's eigenbasis is applied by axis, with no fast sine transform
    assert "scipy.fft" not in loaded
    # the config is validated without jsonschema and the packages it imports
    assert not {"jsonschema", "referencing", "attr", "jsonschema_specifications"} & set(loaded)


def test_commands_import_no_numpy_or_scipy_module(tmp_path):
    # the benchmark's tiny workloads: simulate-additive, simulate-multiplicative
    # and verify-all, each after its config is loaded, as the benchmark times them
    imported = run_fresh(f"""
        import contextlib, io, json, os, sys
        import spmlab.cli as cli
        from workloads import TINY, command_line

        imported = {{}}
        for name in sorted(TINY):
            argv = command_line(name, 1, os.path.join({str(tmp_path)!r}, name), TINY[name])
            cli.load_config(cli.build_parser().parse_args(argv))
            before = set(sys.modules)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            imported[argv[0]] = sorted(m for m in set(sys.modules) - before
                                       if m.split(".")[0] in ("numpy", "scipy"))
        print(json.dumps(imported))
    """)
    assert imported == {"simulate-additive": [], "simulate-multiplicative": [],
                        "verify-all": []}


@pytest.mark.parametrize("first,second", [("spmlab.solver", "scipy.linalg"),
                                          ("scipy.linalg", "spmlab.solver")],
                         ids=["spmlab-first", "scipy-first"])
def test_flapack_is_shared_in_either_import_order(first, second):
    result = run_fresh(f"""
        import json, sys
        import {first}
        import {second}
        import numpy as np
        import scipy.linalg
        from scipy.linalg.lapack import dgbsv, dgtsv
        from spmlab import build_laplacian, make_grid
        from spmlab import solver

        funcs = {{name: scipy.linalg.get_lapack_funcs(name, (np.empty(1),))
                 for name in ("gbsv", "gtsv")}}
        out = {{"same_gbsv": solver._gbsv is funcs["gbsv"],
               "same_gtsv": solver._gtsv is funcs["gtsv"],
               "same_module": sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack,
               "loader": type(sys.modules["scipy.linalg._flapack"].__loader__).__name__}}
        rng = np.random.default_rng(5)
        same_bits = True
        # 1D steps against scipy's dgtsv alone, 2D against its dgbsv alone
        for dim, n, routine in [(1, 15, "gtsv"), (2, (5, 7), "gbsv")]:
            L = build_laplacian(make_grid(dim, n, 1.0))
            b, k = L.half_bandwidth, 4
            tau = rng.uniform(1e-3, 0.1, k)
            slope = rng.uniform(0.05, 20.0, (k, L.n))
            rhs = rng.standard_normal((k, L.n))
            x, info, used = solver._solve_jacobians(L, tau, slope, rhs[:, None].copy())
            same_bits = same_bits and info == 0 and used == routine
            for r in range(k):
                if routine == "gtsv":
                    up, diag, low = tau[r] * slope[r] * L.band
                    *_, alone, info = dgtsv(low[:-1], diag + 1.0, up[1:], rhs[r].copy())
                else:
                    ab = np.zeros((L.n, 3 * b + 1)).T
                    ab[b:] = tau[r] * slope[r] * L.band
                    ab[2 * b] += 1.0
                    _, _, alone, info = dgbsv(b, b, ab, rhs[r].copy())
                same_bits = same_bits and info == 0 and x[r, 0].tobytes() == alone.tobytes()
        out["same_bits"] = bool(same_bits)
        tri = np.array([[0.0, -1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]])
        u = scipy.linalg.solve_banded((1, 1), tri, np.array([1.0, 0.0, 1.0]))
        out["solve_banded"] = bool(np.allclose(u, [1.0, 1.0, 1.0], rtol=0, atol=1e-14))
        print(json.dumps(out))
    """)
    assert result == {"same_gbsv": True, "same_gtsv": True, "same_module": True,
                      "loader": "ExtensionFileLoader",
                      "same_bits": True, "solve_banded": True}
