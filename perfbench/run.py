"""spmlab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/spmlab``. The run repeats
whole rounds of the workload until ``--seconds`` have passed. Each round is a
fresh process (worker.py) that imports spmlab, loads the config, runs the
command in-process through ``spmlab.cli.main`` and checks its outputs. Each
check is one operation: ``attempted`` counts them, ``failed`` counts those
that could not be evaluated because an output was missing, and ``correct``
says whether every evaluated check held.

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over its rounds: ``wall_s`` (the command from start to return, outputs
written), ``setup_s`` (process start until spmlab is imported and the config
is loaded and validated) and ``peak_rss_mb`` (the round's peak resident
memory). With ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics of the traced rounds plus ``trace.overhead_s``,
the traced minus the untraced median ``wall_s``. Untraced rounds install no
tracer and record no spans.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
TRACE_DIR = os.path.join(HERE, "trace")
# one BLAS thread per round: the host has few cores and rounds run one at a time
ENV_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# every process of the run ends within this many seconds of its start
RUN_LIMIT_S = 170.0


class RoundError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env.update(ENV_PINS)
    return env


def _run_child(argv, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundError("no time left for another round")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_env(), cwd=ROOT)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundError(f"round exceeded the {RUN_LIMIT_S:.0f} s limit of the run")
    if proc.returncode != 0:
        raise RoundError(f"round exited with {proc.returncode}: {stderr.strip()[-2000:]}")
    return stdout


def warm_up(deadline):
    """Import spmlab once so that bytecode and file caches are warm, as they
    are for a user's second command."""
    _run_child([sys.executable, "-c",
                f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
                "import spmlab.cli"], deadline)


def run_round(workload, seed, traced, deadline):
    out = os.path.join(OUT_DIR, workload)
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--out", out, "--trace", str(int(traced)),
            "--spans", os.path.join(TRACE_DIR, f"{workload}.spans.csv")]
    spawned = time.monotonic()
    stdout = _run_child(argv + ["--spawned", repr(spawned)], deadline)
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RoundError(f"round printed no result: {stdout[-2000:]}")


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spmlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spmlab", "cli.py")):
        print(f"perfbench: no spmlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    traced_plan = (False, True) if args.trace else (False,)
    rounds = []
    try:
        warm_up(deadline)
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            for traced in traced_plan:
                r = run_round(args.workload, args.seed, traced, deadline)
                r["traced"] = traced
                rounds.append(r)
                print(f"round {len(rounds)}{' traced' if traced else ''}: "
                      f"wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
                      f"peak_rss_mb={r['peak_rss_mb']:.1f} exit={r['exit_code']}")
                for name, ok, detail in r["checks"]:
                    verdict = {True: "ok", False: "WRONG", None: "FAILED"}[ok]
                    print(f"  {verdict} {name}: {detail}")
    except RoundError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    verdicts = [ok for r in rounds for _name, ok, _detail in r["checks"]]
    attempted = len(verdicts)
    failed = verdicts.count(None)
    correct = all(ok for ok in verdicts if ok is not None)
    plain = [r for r in rounds if not r["traced"]]
    metrics = {}
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        for note in sorted({n for r in traced for n in r["notes"]}):
            print(f"trace: {note}")
        names = [name for name in traced[0]["layers"]
                 if all(name in r["layers"] for r in traced)]
        for name in names:
            metrics[name] = {"value": statistics.median(r["layers"][name][0] for r in traced),
                             "unit": traced[0]["layers"][name][1]}
        metrics["trace.overhead_s"] = {
            "value": _median(traced, "wall_s") - _median(plain, "wall_s"), "unit": "s"}
    else:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": _median(plain, name), "unit": unit}

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds "
          f"in {time.monotonic() - start:.1f} s, {attempted} checks attempted, "
          f"{failed} failed, all evaluated checks held: {correct}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
