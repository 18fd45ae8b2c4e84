"""One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N [--trace RUN_ID]
                                [--setup-only]

Imports latmod from the checkout's ``src``, builds the workload's inputs,
runs the timed call once and prints one JSON line: the monotonic clock at
the start and end of the timed phase (the runner started its clock before
spawning this process, so the difference is set-up time), CPU time and
peak RSS of this process and its reaped children, and the outputs to be
checked against the pins.  With ``--trace`` the layer wrappers are
installed before set-up, spans are written next to the result files and
the aggregate goes into the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_latmod():
    sys.path.insert(0, SRC)
    import latmod

    if os.path.dirname(os.path.dirname(os.path.abspath(latmod.__file__))) != SRC:
        raise ImportError(f"latmod was imported from {latmod.__file__}, not from {SRC}")
    return latmod


def _cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="RUN_ID")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads

    latmod = _import_latmod()
    tracer = None
    if args.trace:
        import tracing

        os.makedirs(OUT, exist_ok=True)
        tracer = tracing.Tracer(args.trace, OUT)
        tracer.install()
    call, outputs = workloads.prepare(args.workload, args.seed)
    cpu0 = _cpu_seconds()
    t_begin = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"t_begin": t_begin}))
        return 0
    result = call()
    t_end = time.perf_counter()
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()
    rec = {
        "t_begin": t_begin,
        "t_end": t_end,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "kernel_kind": latmod.KERNEL_KIND,
        "items": outputs(result),
    }
    if tracer is not None:
        rec["trace"] = tracing.merge([tracer.aggregate()] + tracer.worker_aggregates())
        tracer.write_spans(os.path.join(OUT, f"{args.trace}.spans.jsonl"))
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
