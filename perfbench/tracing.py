"""In-memory tracing of latmod's layers, installed from outside the package.

Two kinds of wrapper go around public callables of latmod's modules:

* a *span* records ``[name, start, end, parent, leaf_s, index]`` for each call of
  a coarse operation (a Groebner basis, a normal form, a suite check);
* a *leaf* counts calls of a hot small operation (``Packing.*``,
  ``SmallField.*``) and adds up its time; leaves nested in a leaf of the
  same group are counted but not timed twice, and leaf time is charged
  to the innermost open span so that span self time excludes it.

Every attribute that holds a wrapped function is patched: the defining
module, re-exports such as ``latmod.kernel.nf`` and names bound by
``from .x import f`` elsewhere in the package.  The suite's pool entry
point is wrapped too, so that forked ``--jobs`` workers report their
checks back through files.  ``Tracer.uninstall`` restores each patched
attribute to the object it held before.

A span's self time is its duration minus the part of its interval that
its child spans cover (the union of the children, clipped to the parent)
minus the leaf time charged to it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# fields of a span record; INDEX is the record's own position in the list
NAME, START, END, PARENT, LEAF, INDEX = range(6)

# counters that observers add to, reported as 0 when nothing touched them
COUNTERS = (
    "ideals.groebner.cache_hits", "kernel.nf.zero", "kernel.pairs.candidates",
    "kernel.basis.elements", "kernel.basis.terms", "verify.smooth_check.minors_used",
    "verify.point_count.points", "chainnf.normal_form.failures",
)

perf_counter = time.perf_counter


# -- what gets wrapped ----------------------------------------------------------------
#
# (module, qualified attribute, metric stem, kind, observer).  A stem is
# reported as ``<stem>.calls``; ``<prefix>.self_s`` sums the self time of
# every stem equal to the prefix or below it (``kernel.nf`` is below
# ``kernel``).

def _obs_nf(tr: "Tracer", args, result) -> None:
    if not result[0]:
        tr.counters["kernel.nf.zero"] += 1


def _obs_pairs(tr: "Tracer", args, result) -> None:
    # _update_pairs(pairs, G, lms, h_idx, pk): h_idx candidates (i, h)
    tr.counters["kernel.pairs.candidates"] += args[3]
    tr.maximum("kernel.pairs.queue_max", len(result))


def _obs_basis(tr: "Tracer", args, result) -> None:
    tr.counters["kernel.basis.elements"] += len(result)
    tr.counters["kernel.basis.terms"] += sum(len(g) for g in result)


def _obs_smooth(tr: "Tracer", args, result) -> None:
    tr.counters["verify.smooth_check.minors_used"] += len(result.witness_minors)


def _obs_points(tr: "Tracer", args, result) -> None:
    tr.counters["verify.point_count.points"] += getattr(result, "count", result)


SPAN, LEAF_OP = "span", "leaf"

TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    # packing: hottest leaves
    *(
        ("latmod.packing", f"Packing.{m}", f"packing.{m}", LEAF_OP, None)
        for m in (
            "pack", "unpack", "exponent", "mul", "divides", "quotient",
            "lcm", "coprime", "total_degree",
        )
    ),
    # kernel: the pure-Python module and its re-exports in latmod.kernel
    ("latmod._pykernel", "buchberger", "kernel.buchberger", SPAN, _obs_basis),
    ("latmod._pykernel", "nf", "kernel.nf", SPAN, _obs_nf),
    ("latmod._pykernel", "spoly", "kernel.spoly", SPAN, None),
    ("latmod._pykernel", "_update_pairs", "kernel.update_pairs", SPAN, _obs_pairs),
    ("latmod._pykernel", "interreduce", "kernel.interreduce", SPAN, None),
    ("latmod.kernel", "buchberger", "kernel.buchberger", SPAN, _obs_basis),
    ("latmod.kernel", "nf", "kernel.nf", SPAN, _obs_nf),
    ("latmod.kernel", "spoly", "kernel.spoly", SPAN, None),
    ("latmod.kernel", "interreduce", "kernel.interreduce", SPAN, None),
    # ideals
    ("latmod.ideals", "PolyIdeal.kernel_basis", "ideals.groebner", SPAN, None),
    ("latmod.ideals", "PolyIdeal.normal_form", "ideals.normal_form", SPAN, None),
    ("latmod.ideals", "saturate", "ideals.saturate", SPAN, None),
    ("latmod.ideals", "dimension", "ideals.dimension", SPAN, None),
    ("latmod.ideals", "minors", "ideals.minors", SPAN, None),
    ("latmod.ideals", "jacobian", "ideals.jacobian", SPAN, None),
    # poly and polymat arithmetic
    *(
        ("latmod.poly", f"MultiPoly.{m}", "poly.arith", LEAF_OP, None)
        for m in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__truediv__", "__pow__",
        )
    ),
    ("latmod.polymat", "matmul", "poly.arith", LEAF_OP, None),
    ("latmod.polymat", "matsub", "poly.arith", LEAF_OP, None),
    # schemes
    *(
        ("latmod.schemes", f, "schemes.build", SPAN, None)
        for f in (
            "mu_ideal", "faltings_mu_ideal", "mu_chart_ideal", "local_model_ideal",
            "symplectic_local_model_ideal", "sigma_ideal",
        )
    ),
    ("latmod.schemes", "apply_cyclic_shift", "schemes.symmetry", SPAN, None),
    ("latmod.schemes", "apply_symplectic_involution", "schemes.symmetry", SPAN, None),
    # verify
    ("latmod.verify", "smooth_check", "verify.smooth_check", SPAN, _obs_smooth),
    ("latmod.verify", "generic_fiber_smooth_check", "verify.generic_fiber", SPAN, None),
    ("latmod.verify", "count_points", "verify.point_count", SPAN, _obs_points),
    ("latmod.verify", "count_points_small_field", "verify.point_count", SPAN, _obs_points),
    ("latmod.verify", "chain_subspace_count", "verify.point_count", SPAN, _obs_points),
    ("latmod.verify", "glued_local_model_count", "verify.point_count", SPAN, _obs_points),
    ("latmod.verify", "dimension_growth_oracle", "verify.oracle", SPAN, None),
    ("latmod.verify", "membership_oracle", "verify.oracle", SPAN, None),
    # gfq: field operations are leaves, so is dense linear algebra
    *(
        ("latmod.gfq", f"SmallField.{m}", "gfq.field_ops", LEAF_OP, None)
        for m in ("add", "mul", "pow", "embed_prime", "elements")
    ),
    ("latmod.gfq", "SmallField.__init__", "gfq.tables", SPAN, None),
    *(
        ("latmod.gfq", f, "gfq.linalg", LEAF_OP, None)
        for f in (
            "mat_identity", "mat_mul", "mat_vec", "mat_scale", "mat_sub",
            "rref", "mat_rank", "mat_inv", "mat_det", "column_space_complement",
        )
    ),
    # intlinalg, characters, indexset
    ("latmod.intlinalg", "snf", "intlinalg.snf", SPAN, None),
    *(
        ("latmod.intlinalg", f, "intlinalg.lattice", SPAN, None)
        for f in ("cokernel_invariants", "saturated_kernel", "solve_integer",
                  "lattice_membership")
    ),
    *(
        ("latmod.characters", f, f"characters.{f}", SPAN, None)
        for f in (
            "character_data", "center_embedding_matrix", "chi_pairing", "chi_vector",
            "kernel_is_torus_check", "quotient_by_subtorus_check", "open_cell_point",
        )
    ),
    ("latmod.indexset", "enumerate_index_set", "indexset.enumerate", SPAN, None),
    ("latmod.indexset", "leq", "indexset.leq", LEAF_OP, None),
    ("latmod.indexset", "pi_delta", "indexset.pi_delta", LEAF_OP, None),
    # chainnf
    ("latmod.chainnf", "chain_normal_form", "chainnf.normal_form", SPAN, None),
    ("latmod.chainnf", "point_in_mu_chart", "chainnf.chart_test", LEAF_OP, None),
    ("latmod.chainnf", "conjugated_chain_point", "chainnf.conjugate", SPAN, None),
    # resolution, opencell
    ("latmod.resolution", "blowup_chart", "resolution.blowup", SPAN, None),
    *(
        ("latmod.resolution", f, f"resolution.{f.split('.')[-1]}", SPAN, None)
        for f in (
            "kill_t_torsion", "diagonal_chart_ideals", "sigma_fiber_freecount",
            "census_groebner_crosscheck", "BlowupChart.pulled_back_center_principal",
            "DiagonalChartData.product_identities_hold",
            "DiagonalChartData.minors_are_principal",
        )
    ),
    ("latmod.opencell", "open_cell_factors_through_mu", "opencell.factors", SPAN, None),
    ("latmod.opencell", "open_cell_ratio_invariance", "opencell.ratio", SPAN, None),
    ("latmod.opencell", "OpenCellSymbols.__init__", "opencell.symbols", SPAN, None),
    ("latmod.opencell", "OpenCellSymbols.pi_matrices", "opencell.symbols", SPAN, None),
    # suite
    ("latmod.suite", "run_suite", "suite.run", SPAN, None),
    ("latmod.suite", "run_one", "suite.check", SPAN, None),
)

# Counted failures: a span that raises one of these is counted under
# ``<stem>.failures`` before the exception propagates.
FAILURE_EXCEPTIONS = {"chainnf.normal_form": ("latmod.errors", "NormalFormFailure")}


# -- self time --------------------------------------------------------------------------

def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: duration, minus the union of its children's
    intervals within it, minus the leaf time charged to it."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        out.append(dur - covered(s[START], s[END], children.get(i, ())) - s[LEAF])
    return out


# -- the tracer ---------------------------------------------------------------------------

class Tracer:
    """Holds spans, leaf counts and counters for one process."""

    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.maxima: Dict[str, float] = {}
        self._leaves: List[Tuple[str, list]] = []  # (stem, [calls])
        self._leaf_time: Dict[str, list] = {}  # group -> [seconds]
        self._active_leaf: list = [None]  # the open outermost leaf group
        self._patched: List[Tuple[object, str, object]] = []

    # counters -----------------------------------------------------------------
    def maximum(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def reset(self) -> None:
        """Forget everything recorded so far (a forked worker starts clean)."""
        self.spans.clear()
        self.stack.clear()
        self.maxima.clear()
        for k in self.counters:
            self.counters[k] = 0
        for _, cell in self._leaves:
            cell[0] = 0
        for cell in self._leaf_time.values():
            cell[0] = 0.0
        self._active_leaf[0] = None

    # wrappers -------------------------------------------------------------------
    def _span(self, stem: str, fn, observe, failure_exc):
        spans = self.spans
        stack = self.stack
        counters = self.counters
        is_basis_request = stem == "ideals.groebner"
        fail_key = stem + ".failures"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_basis_request and args[0]._kernel_gb is not None:
                counters["ideals.groebner.cache_hits"] += 1
            rec = [stem, 0.0, 0.0, stack[-1][INDEX] if stack else -1, 0.0, len(spans)]
            spans.append(rec)
            stack.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if failure_exc is not None and isinstance(exc, failure_exc):
                    counters[fail_key] += 1
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _leaf(self, group: str, fn, cell: list):
        # Time is exclusive: a leaf of another group nested inside this one
        # is subtracted from it; a nested leaf of the same group is counted
        # but not timed again.  The outermost leaf charges its whole time to
        # the innermost open span.
        grp = self._leaf_time.setdefault(group, [0.0])
        active = self._active_leaf
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            outer = active[0]
            if outer is grp:
                return fn(*args, **kwargs)
            active[0] = grp
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[0] = outer
                grp[0] += dt
                if outer is not None:
                    outer[0] -= dt
                elif stack:
                    stack[-1][LEAF] += dt

        return wrapper

    def install(self) -> None:
        """Wrap every target, every package attribute bound to it, and the
        suite's pool entry point (see ``_pool_worker_hook``)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import importlib

        wrappers: Dict[int, object] = {}
        originals: Dict[int, object] = {}

        def wrap(owner, attr: str, wrapper) -> None:
            original = inspect.getattr_static(owner, attr)
            wrappers[id(original)] = wrapper
            originals[id(original)] = original
            self._patch(owner, attr, wrapper)

        for module_name, qualname, stem, kind, observe in TARGETS:
            module = importlib.import_module(module_name)
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            if id(original) in wrappers:
                self._patch(owner, attr, wrappers[id(original)])
            elif kind == LEAF_OP:
                cell = [0]
                self._leaves.append((stem, cell))
                # all packing operations share one timing group
                group = "packing" if stem.startswith("packing.") else stem
                wrap(owner, attr, self._leaf(group, original, cell))
            else:
                exc = None
                if stem in FAILURE_EXCEPTIONS:
                    mod, name = FAILURE_EXCEPTIONS[stem]
                    exc = getattr(importlib.import_module(mod), name)
                wrap(owner, attr, self._span(stem, original, observe, exc))
        suite = importlib.import_module("latmod.suite")
        wrap(suite, "_run_entry_tuple", self._pool_worker_hook(suite._run_entry_tuple))
        # names bound elsewhere by ``from .module import function``
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "latmod":
                continue
            for name, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)]:
                    self._patch(module, name, wrappers[id(value)])

    def _pool_worker_hook(self, fn):
        """Wrapper for ``latmod.suite._run_entry_tuple``, which a pool worker
        calls once per check.

        A forked worker inherits this tracer.  For each check it starts the
        tracer afresh, and afterwards appends the check's aggregate and spans
        to ``<out_dir>/<run_id>.worker-<pid>.{agg,spans}.jsonl``, which
        ``worker_aggregates`` reads after the pool has shut down.  In the
        tracer's own process the call passes through.
        """

        @functools.wraps(fn)
        def hook(payload):
            if os.getpid() == self.pid:
                return fn(payload)
            self.reset()
            try:
                return fn(payload)
            finally:
                stem = os.path.join(self.out_dir, f"{self.run_id}.worker-{os.getpid()}")
                with open(stem + ".agg.jsonl", "a") as fh:
                    fh.write(json.dumps(self.aggregate()) + "\n")
                self.write_spans(stem + ".spans.jsonl")

        return hook

    def worker_aggregates(self) -> List[Dict]:
        """The per-check aggregates that pool workers wrote for this run."""
        out = []
        prefix = f"{self.run_id}.worker-"
        for name in sorted(os.listdir(self.out_dir)):
            if name.startswith(prefix) and name.endswith(".agg.jsonl"):
                with open(os.path.join(self.out_dir, name)) as fh:
                    out.extend(json.loads(line) for line in fh if line.strip())
        return out

    def _patch(self, owner, attr: str, wrapper) -> None:
        if any(o is owner and a == attr for o, a, _ in self._patched):
            return
        self._patched.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # results ----------------------------------------------------------------------
    def aggregate(self) -> Dict:
        """Mergeable per-stem totals: calls, self time, total time, longest call."""
        stems: Dict[str, Dict[str, float]] = {}
        for rec, self_s in zip(self.spans, self_times(self.spans)):
            a = stems.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})
            a["calls"] += 1
            a["self_s"] += self_s
            dur = rec[END] - rec[START]
            a["total_s"] += dur
            if dur > a["max_s"]:
                a["max_s"] = dur
        leaf_calls: Dict[str, int] = {}
        for stem, cell in self._leaves:
            leaf_calls[stem] = leaf_calls.get(stem, 0) + cell[0]
        leaf_groups = {g: cell[0] for g, cell in self._leaf_time.items()}
        return {
            "spans": stems,
            "leaf_calls": leaf_calls,
            "leaf_s": leaf_groups,
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }

    def write_spans(self, path: str) -> None:
        """Append every span, one JSON list per line, tagged with the run id.

        A span's line number in the file is its index, and PARENT is the
        line number of its parent (-1 for a root).  Spans appended to a file
        that already holds some are shifted by the lines already there, so
        a worker's file stays resolvable across the checks it ran.
        """
        try:
            with open(path) as fh:
                offset = sum(1 for _ in fh)
        except FileNotFoundError:
            offset = 0
        with open(path, "a") as fh:
            for rec in self.spans:
                parent = rec[PARENT] + offset if rec[PARENT] >= 0 else -1
                fh.write(json.dumps([rec[NAME], rec[START], rec[END], parent, self.run_id]))
                fh.write("\n")


def merge(aggs: Sequence[Dict]) -> Dict:
    """Combine aggregates from several processes."""
    out = {"spans": {}, "leaf_calls": {}, "leaf_s": {}, "counters": {}, "maxima": {}}
    for agg in aggs:
        for stem, a in agg["spans"].items():
            b = out["spans"].setdefault(stem, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})
            b["calls"] += a["calls"]
            b["self_s"] += a["self_s"]
            b["total_s"] += a["total_s"]
            b["max_s"] = max(b["max_s"], a["max_s"])
        for key in ("leaf_calls", "leaf_s", "counters"):
            for k, v in agg[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k, v in agg["maxima"].items():
            out["maxima"][k] = max(out["maxima"].get(k, v), v)
    return out
