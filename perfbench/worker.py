"""One round of one workload, in a fresh process started by run.py.

The round imports spmlab from the checkout's ``src``, loads and validates the
workload's config (the end of set-up), runs the command in-process through
``spmlab.cli.main``, and then checks the outputs. With ``--trace 1`` the
command runs under the tracer and the round also reports per-layer metrics
and writes its spans. The round's figures go to stdout as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --spawned MONOTONIC_SECONDS [--trace 0|1] [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced round writes its spans")
    args = parser.parse_args(argv)

    from workloads import command_line

    sys.path.insert(0, SRC)
    import spmlab
    import spmlab.cli as cli

    if os.path.dirname(os.path.abspath(spmlab.__file__)) != os.path.join(SRC, "spmlab"):
        print(f"spmlab was imported from {spmlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    command = command_line(args.workload, args.seed, args.out)
    cfg = cli.load_config(cli.build_parser().parse_args(command))
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        start = time.perf_counter()
        exit_code = cli.main(command)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
              "exit_code": exit_code}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["notes"] = tracer.notes
        if args.spans:
            tracer.write_spans(args.spans)

    from checks import check_outputs

    result["checks"] = check_outputs(args.workload, args.out, exit_code, cfg.data)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
