"""latmod benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is a fresh interpreter
(``perfbench/sample.py``) started by this single client process, one at a
time (a closed loop).  Samples repeat until the next one would end after
``--seconds`` of measuring; at least one runs.  Every sample's outputs are
checked against ``perfbench/pins.json``.

With ``--trace 0`` the metrics are ``wall_s``, ``cpu_s``, ``setup_s`` and
``peak_rss_mb`` (medians over the samples; set-up time also over a few
set-up-only starts).  With ``--trace 1`` the same loop runs untraced, then
one traced sample gives the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a result file with
provenance is written under ``perfbench/out``.  The exit code is 0 only if
every output matched its pin.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SAMPLE = os.path.join(HERE, "sample.py")
PINS = os.path.join(HERE, "pins.json")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_PROBES = 5
SAMPLE_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit); see perfbench/README.md for what each one counts.
PER_LAYER = (
    *((f"packing.{op}.calls", "count") for op in
      ("divides", "lcm", "mul", "coprime", "pack", "unpack", "quotient")),
    ("packing.self_s", "s"),
    *((f"kernel.{op}.{m}", u) for op in
      ("buchberger", "nf", "spoly", "update_pairs", "interreduce")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("kernel.nf.zero_ratio", "ratio"),
    ("kernel.pairs.candidates", "count"),
    ("kernel.pairs.queue_max", "count"),
    ("kernel.basis.elements", "count"),
    ("kernel.basis.terms", "count"),
    ("ideals.groebner.calls", "count"),
    ("ideals.groebner.cache_hits", "count"),
    ("ideals.groebner.self_s", "s"),
    *((f"ideals.{op}.{m}", u) for op in
      ("normal_form", "saturate", "dimension", "minors", "jacobian")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("poly.arith.calls", "count"),
    ("poly.arith.self_s", "s"),
    ("schemes.build.calls", "count"),
    ("schemes.build.self_s", "s"),
    ("verify.smooth_check.calls", "count"),
    ("verify.smooth_check.self_s", "s"),
    ("verify.smooth_check.minors_used", "count"),
    ("verify.point_count.points", "count"),
    ("verify.point_count.self_s", "s"),
    ("verify.oracle.self_s", "s"),
    ("gfq.field_ops.calls", "count"),
    ("gfq.linalg.calls", "count"),
    ("gfq.self_s", "s"),
    ("intlinalg.snf.calls", "count"),
    ("intlinalg.snf.self_s", "s"),
    ("characters.self_s", "s"),
    ("indexset.self_s", "s"),
    ("chainnf.normal_form.calls", "count"),
    ("chainnf.normal_form.failures", "count"),
    ("chainnf.normal_form.self_s", "s"),
    ("chainnf.chart_test.calls", "count"),
    ("resolution.blowup.calls", "count"),
    ("resolution.blowup.self_s", "s"),
    ("resolution.self_s", "s"),
    ("opencell.self_s", "s"),
    ("suite.check.calls", "count"),
    ("suite.check.max_s", "s"),
    ("suite.overhead_s", "s"),
    ("suite.pool_util", "ratio"),
    ("suite.scaling_eff", "ratio"),
    ("trace.kernel_share", "ratio"),
    ("trace.overhead_s", "s"),
)


class SampleError(RuntimeError):
    pass


# -- samples ----------------------------------------------------------------------------

def spawn(workload: str, seed: int, trace_id: Optional[str] = None,
          setup_only: bool = False) -> Dict:
    """Run one sample in a fresh interpreter and return its record, with
    ``setup_s`` (spawn to start of the timed phase) and ``elapsed_s``."""
    cmd = [sys.executable, SAMPLE, "--workload", workload, "--seed", str(seed)]
    if trace_id:
        cmd += ["--trace", trace_id]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{workload} sample exceeded {SAMPLE_TIMEOUT_S} s") from exc
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(
            f"{workload} sample exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["t_begin"] - t0
    rec["elapsed_s"] = elapsed
    if not setup_only:
        rec["wall_s"] = rec["t_end"] - rec["t_begin"]
    return rec


class Tally:
    """Items attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, attempted: int, failed: List[str], tag: str) -> None:
        self.attempted += attempted
        self.failures.extend(f"{tag}: {f}" for f in failed)

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_counts(workload: str, layer: Dict[str, Tuple[float, str]], pins: Dict) -> Tuple[int, List[str]]:
    """Compare the traced run's pinned counts (fresh state: no basis may
    come from a cache that survives between objects or runs)."""
    expected = pins["counts"][workload]
    bad = [
        f"{k} = {layer[k][0]} (pinned {v})"
        for k, v in sorted(expected.items())
        if layer[k][0] != v
    ]
    return len(expected), bad


# -- per-layer metrics ------------------------------------------------------------------

def layer_metrics(agg: Dict, jobs: int, traced_wall: float, untraced_wall: float) -> Dict[str, Tuple[float, str]]:
    spans = agg["spans"]
    leaf_calls = agg["leaf_calls"]
    counters = agg["counters"]

    def calls(stem: str) -> int:
        if stem in spans:
            return spans[stem]["calls"]
        return leaf_calls.get(stem, 0)

    def self_s(prefix: str) -> float:
        def under(name: str) -> bool:
            return name == prefix or name.startswith(prefix + ".")

        return sum(a["self_s"] for k, a in spans.items() if under(k)) + sum(
            v for k, v in agg["leaf_s"].items() if under(k)
        )

    checks = spans.get("suite.check", {"calls": 0, "total_s": 0.0, "max_s": 0.0})
    run_wall = spans.get("suite.run", {}).get("total_s", 0.0)
    lower = max(checks["total_s"] / jobs, checks["max_s"])
    nf_calls = calls("kernel.nf")
    derived = {
        "kernel.nf.zero_ratio": counters["kernel.nf.zero"] / nf_calls if nf_calls else 0.0,
        "kernel.pairs.queue_max": agg["maxima"].get("kernel.pairs.queue_max", 0),
        "suite.check.max_s": checks["max_s"],
        "suite.overhead_s": run_wall - lower if run_wall else 0.0,
        "suite.pool_util": checks["total_s"] / (jobs * run_wall) if run_wall else 0.0,
        "suite.scaling_eff": lower / run_wall if run_wall else 0.0,
        "trace.kernel_share": (self_s("packing") + self_s("kernel")) / traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name in counters:
            value = counters[name]
        elif name.endswith(".calls"):
            value = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            value = self_s(name[: -len(".self_s")])
        else:
            raise KeyError(name)
        out[name] = (value, unit)
    return out


# -- provenance -------------------------------------------------------------------------

def git_revision(root: str = ROOT) -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search directories above the checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- one workload -----------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, pins: Dict) -> Dict:
    tally = Tally()
    spawn(workload, seed, setup_only=True)  # warm-up: compiles bytecode, fills caches
    # gb_large gets one timed sample per run, so set-up is also measured on
    # a few set-up-only starts; the median over all of them is reported
    probes = [spawn(workload, seed, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    samples: List[Dict] = []
    t_start = time.perf_counter()
    while True:
        try:
            rec = spawn(workload, seed)
        except SampleError as exc:
            n = len(pins["outputs"][workload])
            tally.add(n, [f"item {i}" for i in range(n)], f"sample {len(samples)} crashed")
            print(exc, file=sys.stderr)
            break
        samples.append(rec)
        tally.add(*workloads.check_outputs(workload, rec["items"], pins), f"sample {len(samples)}")
        typical = statistics.median(s["elapsed_s"] for s in samples)
        if time.perf_counter() - t_start + typical > seconds:
            break
    result: Dict = {
        "workload": workload,
        "samples": len(samples),
        "tally": tally,
        "kernel_kind": samples[0]["kernel_kind"] if samples else "unknown",
        "untraced_wall_s": [s["wall_s"] for s in samples],
        "setup_s": {"probes": probes, "samples": [s["setup_s"] for s in samples]},
    }
    if samples:
        result["metrics"] = {
            "wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
            "cpu_s": (statistics.median(s["cpu_s"] for s in samples), "s"),
            "setup_s": (statistics.median(probes + result["setup_s"]["samples"]), "s"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        }
    if trace and samples:
        run_id = f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
        try:
            rec = spawn(workload, seed, trace_id=run_id)
        except SampleError as exc:
            tally.add(1, ["traced sample"], "trace")
            print(exc, file=sys.stderr)
        else:
            tally.add(*workloads.check_outputs(workload, rec["items"], pins), "traced sample")
            untraced = result["metrics"]["wall_s"][0]
            layer = layer_metrics(rec["trace"], workloads.JOBS[workload], rec["wall_s"], untraced)
            tally.add(*check_counts(workload, layer, pins), "traced counts")
            result["layer"] = layer
            result["traced_wall_s"] = rec["wall_s"]
            result["spans_file"] = os.path.relpath(os.path.join(OUT, f"{run_id}.spans.jsonl"), ROOT)
    return result


def provenance(seed: int, seconds: float, trace: bool, kernel_kind: str) -> Dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "kernel_kind": kernel_kind,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def write_result(name: str, seed: int, seconds: float, trace: bool, res: Dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    record = {
        "provenance": provenance(seed, seconds, trace, res["kernel_kind"]),
        "workload": name,
        "samples": res["samples"],
        "untraced_wall_s": res["untraced_wall_s"],
        "traced_wall_s": res.get("traced_wall_s"),
        "setup_s": res["setup_s"],
        "attempted": res["tally"].attempted,
        "failures": res["tally"].failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.get("metrics", {}).items()},
        "layer": {k: {"value": v, "unit": u} for k, (v, u) in res.get("layer", {}).items()},
        "spans_file": res.get("spans_file"),
    }
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def print_table(name: str, res: Dict, trace: bool) -> None:
    tally = res["tally"]
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{name}: {res['samples']} samples, kernel {res['kernel_kind']}")
    rows = list(res.get("metrics", {}).items())
    rows.append(("fail_ratio", (ratio, f"({tally.failed}/{tally.attempted})")))
    if trace:
        rows += list(res.get("layer", {}).items())
    for metric, (value, unit) in rows:
        print(f"  {metric:34s} {value:>16.6g} {unit}")
    for f in tally.failures:
        print(f"  FAILED {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "latmod", "__init__.py")):
        print(f"no latmod sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(PINS) as fh:
        pins = json.load(fh)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    metrics: Dict[str, Dict] = {}
    attempted = failed = 0
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), pins)
        print_table(name, res, bool(args.trace))
        print(f"  result file {os.path.relpath(write_result(name, args.seed, args.seconds, bool(args.trace), res), ROOT)}")
        attempted += res["tally"].attempted
        failed += res["tally"].failed
        chosen = res.get("layer", {}) if args.trace else res.get("metrics", {})
        prefix = f"{name}." if len(names) > 1 else ""
        for k, (v, u) in chosen.items():
            metrics[prefix + k] = {"value": v, "unit": u}
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
