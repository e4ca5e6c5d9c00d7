"""One workload run in a fresh process: a closed loop of in-process CLI calls.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. A single client calls
``prolate.cli.main(argv)`` and starts the next op only after the previous one
returned; ops run while the next one is expected to end within ``--seconds``
(at least two run). Each input runs twice in a row; with ``--trace 1`` the
second run of each input is traced and the first is not, so the pair gives
the tracing overhead. The run record (ops, outputs, per-op layer figures,
versions, peak RSS) is written as JSON to ``--record``; with ``--trace 1``
the spans of the traced ops go to ``--spans`` as tab-separated lines.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback

from tracing import Tracer
from workloads import WORKLOADS


def _schedule(workload, trace: bool):
    """(argv, traced) for each op: every input twice, the second traced if asked."""
    for argv in workload.inputs():
        yield argv, False
        yield argv, trace


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    import numpy
    import scipy

    import prolate.cli

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    tracer = Tracer()
    ops: list[dict] = []
    times: list[float] = []
    for argv, traced in _schedule(workload, bool(args.trace)):
        if len(ops) >= 2 and sum(times) + statistics.median(times) > args.seconds:
            break
        op = {"argv": argv, "traced": traced}
        first = len(tracer.spans)
        buf = io.StringIO()
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                op["rc"] = prolate.cli.main(argv)
        except Exception:  # an escaped exception is a failed op, not a failed run
            op["rc"] = None
            op["error"] = traceback.format_exc()
        finally:
            op["seconds"] = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        op["stdout"] = buf.getvalue()
        if traced:
            op["layers"] = tracer.summarize(first, len(tracer.spans))
        times.append(op["seconds"])
        ops.append(op)

    record = {
        "ops": ops,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    if args.trace:
        with open(args.spans, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent, _ in tracer.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
