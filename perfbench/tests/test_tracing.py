"""Tests of the benchmark's tracing: self-time arithmetic and wrappers."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import tracing  # noqa: E402
from tracing import covered, self_times  # noqa: E402


def span(name, start, end, parent, leaf=0.0):
    return [name, start, end, parent, leaf]


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5)]) == 4  # overlapping: [1, 5]
    assert covered(0, 10, [(1, 2), (2, 4), (6, 7)]) == 4  # touching, disjoint
    assert covered(0, 10, [(-5, 2), (9, 20)]) == 3  # clipped to [0, 10]
    assert covered(0, 10, [(3, 4), (1, 8)]) == 7  # one inside another
    assert covered(0, 10, [(11, 12)]) == 0


def test_self_times_nested_spans():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),
        span("c", 2.0, 3.0, 1),  # grandchild: counts against b, not a
        span("d", 6.0, 8.0, 0, leaf=0.5),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.5])


def test_self_times_overlapping_children_counted_once():
    # children from two workers overlap in time inside one parent
    spans = [
        span("run", 0.0, 10.0, -1),
        span("w1", 1.0, 6.0, 0),
        span("w2", 4.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([2.0, 5.0, 5.0])


def test_self_times_subtract_leaf_time():
    spans = [span("a", 0.0, 4.0, -1, leaf=1.5), span("b", 1.0, 2.0, 0)]
    assert self_times(spans) == pytest.approx([1.5, 1.0])


def test_merge_adds_counts_and_keeps_maxima():
    a = {"spans": {"x": {"calls": 1, "self_s": 1.0, "total_s": 2.0, "max_s": 2.0}},
         "leaf_calls": {"p": 3}, "leaf_s": {"p": 0.5}, "counters": {"c": 1},
         "maxima": {"m": 4}}
    b = {"spans": {"x": {"calls": 2, "self_s": 0.5, "total_s": 3.0, "max_s": 1.5}},
         "leaf_calls": {"p": 1}, "leaf_s": {"p": 0.25}, "counters": {"c": 2},
         "maxima": {"m": 7}}
    m = tracing.merge([a, b])
    assert m["spans"]["x"] == {"calls": 3, "self_s": 1.5, "total_s": 5.0, "max_s": 2.0}
    assert m["leaf_calls"] == {"p": 4}
    assert m["counters"] == {"c": 3}
    assert m["maxima"] == {"m": 7}


def _package_state():
    """Every attribute of every latmod module and class, by identity."""
    import latmod.suite  # noqa: F401  (loads every module the targets name)

    state = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or name.split(".")[0] != "latmod":
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    state[(name, attr, cattr)] = cvalue
    return state


def test_write_spans_keeps_parents_resolvable_across_appends(tmp_path):
    tr = tracing.Tracer("r", str(tmp_path))
    path = str(tmp_path / "w.spans.jsonl")
    for check in ("first", "second"):
        tr.spans[:] = [span(check, 0.0, 2.0, -1), span(check + ".child", 0.5, 1.0, 0)]
        tr.write_spans(path)
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    assert [(l[tracing.NAME], l[tracing.PARENT]) for l in lines] == [
        ("first", -1), ("first.child", 0), ("second", -1), ("second.child", 2)]
    assert all(l[4] == "r" for l in lines)


def test_wrappers_installed_everywhere_and_uninstalled_cleanly(tmp_path):
    import latmod._pykernel as pyk
    import latmod.kernel as kernel
    import latmod.suite as suite
    from latmod.ideals import PolyIdeal
    from latmod.packing import Packing
    from latmod.poly import PolyRing, QQ

    before = _package_state()
    tr = tracing.Tracer("test", str(tmp_path))
    tr.install()
    try:
        # the kernel function, its re-export and from-imports are all wrapped
        assert pyk.nf is kernel.nf and pyk.nf is not before[("latmod._pykernel", "nf")]
        assert suite.dimension is not before[("latmod.suite", "dimension")]
        assert Packing.divides is not before[("latmod.packing", "Packing", "divides")]
        assert suite._run_entry_tuple is not before[("latmod.suite", "_run_entry_tuple")]
        ring = PolyRing(QQ, ["x", "y", "z"])
        x, y, z = ring.gens()
        PolyIdeal(ring, [x * y - z, y * z - x, x * z - y]).groebner_basis()
    finally:
        tr.uninstall()
    after = _package_state()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    agg = tr.aggregate()
    assert agg["spans"]["ideals.groebner"]["calls"] == 1
    assert agg["spans"]["kernel.buchberger"]["calls"] == 1
    # internal calls of the kernel went through the wrappers too
    assert agg["spans"]["kernel.nf"]["calls"] > 0
    assert agg["spans"]["kernel.update_pairs"]["calls"] > 0
    assert agg["leaf_calls"]["packing.divides"] > 0
    parents = {s[tracing.NAME]: s[tracing.PARENT] for s in tr.spans}
    assert tr.spans[parents["kernel.buchberger"]][tracing.NAME] == "ideals.groebner"
    assert all(t >= -1e-6 for t in tracing.self_times(tr.spans))


def test_install_twice_is_refused(tmp_path):
    tr = tracing.Tracer("test", str(tmp_path))
    tr.install()
    try:
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()
