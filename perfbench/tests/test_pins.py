"""Tests of the benchmark's output checks: a wrong pin is a failed item,
and the command exits non-zero on it."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROWS = [
    {"id": "a[x=1]", "verdict": True, "witness_digest": "1111"},
    {"id": "b[x=2]", "verdict": True, "witness_digest": "2222"},
    {"id": "report", "sha256": "ffff"},
]


def pins_for(items):
    return {"outputs": {"census": {i["id"]: {k: v for k, v in i.items() if k != "id"}
                                   for i in items}}}


def test_matching_outputs_pass():
    assert workloads.check_outputs("census", ROWS, pins_for(ROWS)) == (3, [])


def test_injected_wrong_pin_fails_one_item():
    pins = pins_for(ROWS)
    pins["outputs"]["census"]["b[x=2]"]["witness_digest"] = "0000"
    attempted, failed = workloads.check_outputs("census", ROWS, pins)
    assert (attempted, failed) == (3, ["b[x=2]"])
    tally = run.Tally()
    tally.add(attempted, failed, "sample 1")
    assert tally.failed / tally.attempted == 1 / 3


def test_false_verdict_missing_and_unpinned_items_fail():
    pins = pins_for(ROWS)
    rows = [dict(ROWS[0], verdict=False), {"id": "c[x=3]", "verdict": True,
                                           "witness_digest": "3333"}, ROWS[2]]
    attempted, failed = workloads.check_outputs("census", rows, pins)
    assert attempted == 4
    assert sorted(failed) == ["a[x=1]", "b[x=2]", "c[x=3]"]


def test_layer_metrics_self_time_and_suite_ratios():
    agg = {
        "spans": {
            "kernel.nf": {"calls": 4, "self_s": 1.0, "total_s": 2.0, "max_s": 1.0},
            "suite.run": {"calls": 1, "self_s": 0.5, "total_s": 10.0, "max_s": 10.0},
            "suite.check": {"calls": 3, "self_s": 0.5, "total_s": 16.0, "max_s": 9.0},
        },
        "leaf_calls": {"packing.divides": 7},
        "leaf_s": {"packing": 2.0},
        "counters": dict(dict.fromkeys(tracing.COUNTERS, 0), **{"kernel.nf.zero": 1}),
        "maxima": {},
    }
    layer = run.layer_metrics(agg, jobs=2, traced_wall=12.0, untraced_wall=10.0)
    assert layer["kernel.nf.calls"] == (4, "count")
    assert layer["packing.divides.calls"][0] == 7
    assert layer["kernel.nf.zero_ratio"][0] == 0.25
    assert layer["trace.kernel_share"][0] == (1.0 + 2.0) / 12.0
    assert layer["trace.overhead_s"][0] == 2.0
    # lower bound of a 2-worker schedule: max(16 / 2, 9) = 9 s
    assert layer["suite.check.max_s"][0] == 9.0
    assert layer["suite.overhead_s"][0] == 1.0
    assert layer["suite.pool_util"][0] == 16.0 / 20.0
    assert layer["suite.scaling_eff"][0] == 9.0 / 10.0


def test_benchmark_json_declares_the_printed_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def test_command_exits_nonzero_on_wrong_pin(tmp_path, monkeypatch, capsys):
    with open(run.PINS) as fh:
        pins = json.load(fh)
    row = sorted(pins["outputs"]["cert_small"])[0]
    pins["outputs"]["cert_small"][row]["witness_digest"] = "0" * 16
    bad = tmp_path / "pins.json"
    bad.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", str(bad))
    code = run.main(["--workload", "cert_small", "--seed", "3", "--seconds", "1",
                     "--trace", "0"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == len(pins["outputs"]["cert_small"])
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
