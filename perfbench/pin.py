"""Write perfbench/pins.json: the correct outputs and counts of every workload.

    python3 perfbench/pin.py

Run this only at a commit whose outputs are known to be right; the
benchmark treats any later difference as a failure.  Each workload runs
once as a traced sample (which gives its outputs and its pinned counts).
The pins of ``suite_jobs2`` come from the serial run of the same checks,
so the parallel report must be byte-identical to the serial one.  Pinned
outputs do not depend on the seed; seed 0 is used.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402

PINNED_COUNTS = ("ideals.groebner.calls", "kernel.buchberger.calls")
SEED = 0


def pin_fields(item):
    return {k: v for k, v in item.items() if k != "id"}


def serial_union(seed: int):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from latmod.suite import run_suite

    config = workloads.suite_config(workloads.CERT_SMALL + workloads.CENSUS, seed)
    return workloads.report_outputs(run_suite(config, jobs=1, with_timestamp=False))


def main() -> int:
    pins = {"outputs": {}, "counts": {}}
    for name in workloads.NAMES:
        rec = run.spawn(name, SEED, trace_id=f"pin-{name}-{os.getpid()}")
        items = serial_union(SEED) if name == "suite_jobs2" else rec["items"]
        pins["outputs"][name] = {i["id"]: pin_fields(i) for i in items}
        layer = run.layer_metrics(rec["trace"], workloads.JOBS[name], rec["wall_s"], rec["wall_s"])
        pins["counts"][name] = {k: layer[k][0] for k in PINNED_COUNTS}
        _, bad = workloads.check_outputs(name, rec["items"], pins)
        print(f"{name}: {len(items)} items, counts {pins['counts'][name]}, mismatches {bad}")
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
