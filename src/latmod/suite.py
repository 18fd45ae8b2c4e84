"""Aggregated verification suite: named checks, JSON/CSV reports.

Every check is a pure function of its parameters (plus an explicit seed
where randomized), so reports are byte-reproducible; the timestamp field
can be suppressed for that purpose.  Checks run in a process pool when
jobs > 1; the report is assembled in sorted order regardless.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .chains import ChainSpec, ParabolicShape
from .chainnf import chain_normal_form, conjugated_chain_point, random_frame
from .characters import (
    character_data,
    kernel_is_torus_check,
    quotient_by_subtorus_check,
)
from .errors import NormalFormFailure
from .gfq import SmallField, mat_rank
from .ideals import PolyIdeal, dimension, saturate
from .indexset import enumerate_index_set
from .opencell import open_cell_factors_through_mu, open_cell_ratio_invariance
from .poly import GF, PolyRing, QQ
from .resolution import (
    blowup_chart,
    diagonal_chart_ideals,
    sigma_fiber_freecount,
)
from .schemes import (
    apply_cyclic_shift,
    apply_symplectic_involution,
    faltings_mu_ideal,
    generators_match_exactly,
    generators_match_up_to_sign,
    mu_ideal,
    local_model_ideal,
)
from .verify import (
    chain_subspace_count,
    dimension_growth_oracle,
    enumerate_points,
    generic_fiber_smooth_check,
    glued_local_model_count,
)


@dataclass
class CheckResult:
    check: str
    spec: str
    verdict: bool
    witness_digest: str
    runtime_ms: int
    details: Dict[str, object]


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- individual checks ---------------------------------------------------------------

def check_sigma_fiber(params: Dict, seed: int) -> Tuple[bool, Dict]:
    g = int(params["g"])
    census = sigma_fiber_freecount(g)
    expected = g * (3 * g - 1) // 2
    fam = census.family_counts()
    per_family = g * (g + 1) // 2
    ok = (
        census.free_count == expected
        and fam == {1: per_family, 2: per_family, 3: per_family}
        and all(e.action in ("eliminated", "redundant") for e in census.log)
    )
    return ok, {
        "free_count": census.free_count,
        "expected": expected,
        "consumed": census.consumed(),
        "families": fam,
        "free_variables": list(census.free_variables),
    }


def check_torus_kernel(params: Dict, seed: int) -> Tuple[bool, Dict]:
    data = character_data(int(params["n"]), int(params["r"]), int(params["N"]))
    cert = kernel_is_torus_check(data)
    return cert.verdict, {
        "invariants": list(cert.invariants),
        "coordinates_gcd": cert.gcd_of_coordinates(),
        "lattice_rank": cert.lattice_rank,
    }


def check_quotient_subtorus(params: Dict, seed: int) -> Tuple[bool, Dict]:
    data = character_data(int(params["n"]), int(params["r"]), int(params["N"]))
    cert = quotient_by_subtorus_check(data)
    return cert.verdict, {
        "invariants": list(cert.invariants),
        "lattice_rank": cert.lattice_rank,
    }


def check_open_cell(params: Dict, seed: int) -> Tuple[bool, Dict]:
    n, r, N = int(params["n"]), int(params["r"]), int(params["N"])
    factors = open_cell_factors_through_mu(n, r, N)
    invariance = open_cell_ratio_invariance(n, r, N)
    return factors and invariance, {
        "factors_through": factors,
        "ratio_invariance": invariance,
    }


def _chain_spec(params: Dict) -> ChainSpec:
    """The chain spec of a check's n, r, N and d parameters."""
    return ChainSpec(
        int(params["n"]), int(params["r"]), int(params["N"]), tuple(params["d"])
    )


def check_chain_roundtrip(params: Dict, seed: int) -> Tuple[bool, Dict]:
    spec = _chain_spec(params)
    q = int(params["q"])
    trials = int(params.get("trials", 100))
    field = GF(q)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        tau = rng.randrange(q)
        frames = [random_frame(rng, spec.n, q) for _ in range(spec.N + 1)]
        point = conjugated_chain_point(spec, frames, tau, field)
        try:
            chain_normal_form(spec, point, tau, field)
        except NormalFormFailure:
            failures += 1
    return failures == 0, {"trials": trials, "failures": failures, "q": q}


def _mu_chart_points(spec: ChainSpec, q: int):
    """Chart-locus points (mats, tau) for every tau: the pruned enumeration
    of mu over F_q with t = tau, kept where the rank bounds n - d_i hold.

    The enumerated points are zeros of mu with t = tau, so their matrices
    are in the parabolic shape and their cyclic products are tau * Id; of
    ``chainnf.point_in_mu_chart`` only the rank bounds are left to test.  At
    a unit tau those products make every matrix invertible, so every point
    is kept."""
    mu = mu_ideal(spec.n, spec.r, spec.N)
    coords = [v for v in mu.ring.names if v != "t"]
    shape = ParabolicShape(spec.n, spec.r)
    width = len(shape.positions())
    bounds = [spec.n - spec.step(i) for i in range(spec.N + 1)]
    field, sf = GF(q), SmallField(q, 1)
    for tau in range(q):
        for values in enumerate_points(mu.generators, [], coords, sf, {"t": tau}):
            mats = [
                shape.matrix(values[i * width : (i + 1) * width], 0)
                for i in range(spec.N + 1)
            ]
            if tau or all(mat_rank(m, field) >= b for m, b in zip(mats, bounds)):
                yield mats, tau


def check_chain_census(params: Dict, seed: int) -> Tuple[bool, Dict]:
    spec = _chain_spec(params)
    q = int(params["q"])
    field = GF(q)
    members = 0
    failures = 0
    for point, tau in _mu_chart_points(spec, q):
        members += 1
        try:
            chain_normal_form(spec, point, tau, field)
        except NormalFormFailure:
            failures += 1
    return failures == 0 and members > 0, {
        "q": q,
        "chart_points": members,
        "failures": failures,
    }


def check_generic_fiber_mu(params: Dict, seed: int) -> Tuple[bool, Dict]:
    mu = mu_ideal(int(params["n"]), int(params["r"]), int(params["N"]))
    cert, dim = generic_fiber_smooth_check(mu)
    return cert.verdict, {
        "dimension": dim,
        "witness_minors": [list(map(list, w)) for w in cert.witness_minors],
    }


def check_generic_fiber_lm(params: Dict, seed: int) -> Tuple[bool, Dict]:
    spec = _chain_spec(params)
    pivots = params.get("pivots")
    lm = local_model_ideal(spec, pivots)
    cert, dim = generic_fiber_smooth_check(lm)
    return cert.verdict, {"dimension": dim, "minors_used": len(cert.witness_minors)}


def check_shift_stability(params: Dict, seed: int) -> Tuple[bool, Dict]:
    """Every cyclic shift, or only the shift ``params["s"]`` when given,
    fixes the generator set of mu and its reduced basis."""
    n, r, N = int(params["n"]), int(params["r"]), int(params["N"])
    mu = mu_ideal(n, r, N)
    base = mu.ideal.groebner_basis()
    all_equal = True
    set_cert = True
    for s in [int(params["s"])] if "s" in params else range(1, N + 1):
        shifted = apply_cyclic_shift(mu, s)
        set_cert = set_cert and generators_match_exactly(
            mu.generators, shifted.generators
        )
        if shifted.ideal.groebner_basis() != base:
            all_equal = False
    return all_equal and set_cert, {
        "basis_size": len(base),
        "generator_set_fixed": set_cert,
    }


def check_involution_stability(params: Dict, seed: int) -> Tuple[bool, Dict]:
    g, N = int(params["g"]), int(params["N"])
    mu = mu_ideal(2 * g, g, N)
    inv = apply_symplectic_involution(mu)
    sign_cert = generators_match_up_to_sign(mu.generators, inv.generators)
    twice = apply_symplectic_involution(inv)
    involutive = generators_match_exactly(mu.generators, twice.generators)
    base = mu.ideal.groebner_basis()
    equal = inv.ideal.groebner_basis() == base
    return equal and sign_cert and involutive, {
        "basis_size": len(base),
        "signed_generator_set_fixed": sign_cert,
        "involution_squares_to_identity": involutive,
    }


def torsion_test_corpus() -> List[PolyIdeal]:
    """20 deterministic small ideals with assorted t-torsion."""
    ring = PolyRing(QQ, ["x", "y", "t"])
    x, y, t = ring.gens()
    gens_list = [
        [t * x],
        [x],
        [t**2],
        [t * x, y],
        [t * x - t * y],
        [x * y],
        [t * (x - 1), t * y],
        [x**2 * t],
        [t * x + t**2 * y],
        [x - y, t * y],
        [t**3 * x - t**2 * y],
        [x * t, y * t, x * y],
        [t * (x**2 - y)],
        [x**2 - t],
        [t * x**2, t * y**2],
        [t],
        [x * (x - t)],
        [t * x * y - t * x],
        [x + y + t],
        [t**2 * (x + y), x - y],
    ]
    return [PolyIdeal(ring, gs) for gs in gens_list]


def check_torsion_idempotent(params: Dict, seed: int) -> Tuple[bool, Dict]:
    ok = True
    checked = 0
    for ideal in torsion_test_corpus():
        ring = ideal.ring
        t = ring.var("t")
        once = saturate(ideal, t)
        twice = saturate(once, t)
        if once.groebner_basis() != twice.groebner_basis():
            ok = False
        # monotone: the result contains the input
        if not once.contains_ideal(ideal):
            ok = False
        checked += 1
    return ok, {"corpus_size": checked}


def check_blowup_principal(params: Dict, seed: int) -> Tuple[bool, Dict]:
    """Two-stage blowup tower of the end-block system BC = CB = t Id, the
    full-matrix scheme with two g x g matrices: the centers are the
    entries of B, then those of C; the pulled-back center must be
    principal on every nonempty chart."""
    g = int(params.get("g", 2))
    base = faltings_mu_ideal(g, 1)
    coords = base.ring.gens()
    center_b, center_c = coords[: g * g], coords[g * g : 2 * g * g]
    nonempty = 0
    empty = 0
    ok = True
    for k1 in range(len(center_b)):
        first = blowup_chart(base, center_b, k1)
        if first.empty:
            empty += 1
            continue
        if not first.pulled_back_center_principal():
            ok = False
        center_c_mapped = [f.map_ring(first.chart.ring) for f in center_c]
        for k2 in range(len(center_c_mapped)):
            second = blowup_chart(first.chart, center_c_mapped, k2)
            if second.empty:
                empty += 1
                continue
            nonempty += 1
            if not second.pulled_back_center_principal():
                ok = False
    return ok, {"nonempty_charts": nonempty, "empty_charts": empty}


def check_diagonal_identities(params: Dict, seed: int) -> Tuple[bool, Dict]:
    g = int(params["g"])
    data = diagonal_chart_ideals(g)
    products = data.product_identities_hold()
    principal = all(data.minors_are_principal(s) for s in range(1, g + 1))
    return products and principal, {
        "product_identities": products,
        "minor_ideals_principal": principal,
    }


def check_s_set_count(params: Dict, seed: int) -> Tuple[bool, Dict]:
    n, r, N = int(params["n"]), int(params["r"]), int(params["N"])
    fast = len(enumerate_index_set(n, r, N))
    # independent oracle: direct product filter over bounded boxes
    from itertools import product as iproduct

    slots = 2 * (N + 1)
    slow = 0
    for tup in iproduct(range(n + 1), repeat=slots):
        if sum(tup) != n:
            continue
        if sum(tup[0::2]) < r:
            continue
        slow += 1
    expected = params.get("expected")
    ok = fast == slow and (expected is None or fast == int(expected))
    return ok, {"count": fast, "oracle_count": slow}


def check_glued_count(params: Dict, seed: int) -> Tuple[bool, Dict]:
    spec = _chain_spec(params)
    q = int(params["q"])
    tau = int(params.get("tau", 0))
    glued = glued_local_model_count(spec, q, tau)
    direct = chain_subspace_count(spec, q, tau)
    expected = params.get("expected")
    ok = glued == direct and (expected is None or glued == int(expected))
    return ok, {"glued": glued, "direct": direct}


def check_mu_dimension(params: Dict, seed: int) -> Tuple[bool, Dict]:
    n, r, N = int(params["n"]), int(params["r"]), int(params["N"])
    expected = int(params["expected"])
    mu = mu_ideal(n, r, N)
    via_groebner = dimension(mu.ideal)
    via_growth = dimension_growth_oracle(list(mu.generators), p=2)
    ok = via_groebner == expected and via_growth == expected
    return ok, {"groebner": via_groebner, "growth_oracle": via_growth}


CHECKS: Dict[str, Callable[[Dict, int], Tuple[bool, Dict]]] = {
    "sigma_fiber": check_sigma_fiber,
    "torus_kernel": check_torus_kernel,
    "quotient_subtorus": check_quotient_subtorus,
    "open_cell": check_open_cell,
    "chain_roundtrip": check_chain_roundtrip,
    "chain_census": check_chain_census,
    "generic_fiber_mu": check_generic_fiber_mu,
    "generic_fiber_lm": check_generic_fiber_lm,
    "shift_stability": check_shift_stability,
    "involution_stability": check_involution_stability,
    "torsion_idempotent": check_torsion_idempotent,
    "blowup_principal": check_blowup_principal,
    "diagonal_identities": check_diagonal_identities,
    "s_set_count": check_s_set_count,
    "glued_count": check_glued_count,
    "mu_dimension": check_mu_dimension,
}


def default_config() -> Dict:
    """The full acceptance sweep, heaviest checks first.

    The entries that took over 100 ms in a serial run come first, longest
    first; the rest keep the order of the loops below.
    """
    # run_suite(jobs > 1) hands the entries to its workers in this order:
    # started last, a long check would leave the other workers idle while
    # it finishes alone.  The report is sorted by (check, spec), so the
    # order changes nothing else.
    heavy = [
        {"name": "involution_stability", "params": {"g": 2, "N": 2}},
        {"name": "blowup_principal", "params": {"g": 2}},
        {"name": "generic_fiber_mu", "params": {"n": 3, "r": 2, "N": 2}},
        {"name": "generic_fiber_mu", "params": {"n": 3, "r": 1, "N": 2}},
        {"name": "involution_stability", "params": {"g": 2, "N": 1}},
        {"name": "shift_stability", "params": {"n": 3, "r": 1, "N": 2}},
        {"name": "shift_stability", "params": {"n": 3, "r": 2, "N": 2}},
    ]
    checks: List[Dict] = []
    for g in (1, 2, 3):
        checks.append({"name": "sigma_fiber", "params": {"g": g}})
    for n in (2, 3, 4):
        for r in range(1, n):
            for N in (1, 2):
                checks.append({"name": "torus_kernel", "params": {"n": n, "r": r, "N": N}})
                checks.append(
                    {"name": "quotient_subtorus", "params": {"n": n, "r": r, "N": N}}
                )
    for (n, N) in ((2, 1), (2, 2), (3, 1)):
        for r in range(1, n):
            checks.append({"name": "open_cell", "params": {"n": n, "r": r, "N": N}})
    for (n, r, N, d) in ((2, 1, 1, (1, 1)), (3, 1, 1, (1, 2)), (3, 1, 1, (2, 1))):
        for q in (5, 7):
            checks.append(
                {
                    "name": "chain_roundtrip",
                    "params": {"n": n, "r": r, "N": N, "d": list(d), "q": q, "trials": 100},
                    "seed": 20240 + q,
                }
            )
        checks.append(
            {
                "name": "chain_census",
                "params": {"n": n, "r": r, "N": N, "d": list(d), "q": 2},
            }
        )
    checks.append(
        {
            "name": "chain_census",
            "params": {"n": 2, "r": 1, "N": 1, "d": [1, 1], "q": 3},
        }
    )
    mu_specs = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2)]
    for (n, r, N) in mu_specs:
        checks.append({"name": "generic_fiber_mu", "params": {"n": n, "r": r, "N": N}})
        checks.append({"name": "shift_stability", "params": {"n": n, "r": r, "N": N}})
    lm_specs = [
        (2, 1, 1, (1, 1)),
        (3, 1, 1, (1, 2)),
        (3, 1, 1, (2, 1)),
        (3, 2, 1, (1, 2)),
        (3, 2, 1, (2, 1)),
        (3, 1, 2, (1, 1, 1)),
        (3, 2, 2, (1, 1, 1)),
    ]
    for (n, r, N, d) in lm_specs:
        checks.append(
            {"name": "generic_fiber_lm", "params": {"n": n, "r": r, "N": N, "d": list(d)}}
        )
    for g in (1, 2):
        for N in (1, 2):
            checks.append({"name": "involution_stability", "params": {"g": g, "N": N}})
    checks.append({"name": "torsion_idempotent", "params": {}})
    checks.append({"name": "blowup_principal", "params": {"g": 2}})
    for g in (1, 2, 3):
        checks.append({"name": "diagonal_identities", "params": {"g": g}})
    checks.append(
        {"name": "s_set_count", "params": {"n": 2, "r": 1, "N": 1, "expected": 7}}
    )
    checks.append(
        {"name": "s_set_count", "params": {"n": 3, "r": 1, "N": 1, "expected": 16}}
    )
    for q in (2, 3):
        checks.append(
            {
                "name": "glued_count",
                "params": {"n": 2, "r": 1, "N": 1, "d": [1, 1], "q": q, "tau": 0},
            }
        )
    checks.append(
        {"name": "mu_dimension", "params": {"n": 2, "r": 1, "N": 1, "expected": 4}}
    )
    return {"checks": heavy + [c for c in checks if c not in heavy]}


def _spec_string(params: Dict) -> str:
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def run_one(entry: Dict) -> CheckResult:
    name = entry["name"]
    params = entry.get("params", {})
    seed = int(entry.get("seed", 0))
    fn = CHECKS.get(name)
    if fn is None:
        raise ValueError(f"unknown check name {name!r}")
    t0 = time.monotonic()
    verdict, details = fn(params, seed)
    return _result(entry, verdict, details, t0)


def _result(entry: Dict, verdict: bool, details: Dict, t0: float) -> CheckResult:
    """The row of one entry, timed from t0."""
    return CheckResult(
        check=entry["name"],
        spec=_spec_string(entry.get("params", {})),
        verdict=bool(verdict),
        witness_digest=_digest(details),
        runtime_ms=int((time.monotonic() - t0) * 1000),
        details=details,
    )


def _run_entry_tuple(entry_json: str) -> Dict:
    """One report row; a check that raises becomes a failed row."""
    entry = json.loads(entry_json)
    t0 = time.monotonic()
    try:
        result = run_one(entry)
    except Exception as exc:
        result = _result(entry, False, {"error": f"{type(exc).__name__}: {exc}"}, t0)
    return asdict(result)


def run_suite(
    config: Optional[Dict] = None,
    jobs: int = 1,
    with_timestamp: bool = True,
) -> Dict:
    """Run the configured checks; the report completes even on failures.

    With ``with_timestamp=False`` all wall-clock fields (the timestamp
    and the per-check runtimes) are suppressed, making re-runs with the
    same inputs and seeds byte-identical.
    """
    if config is None:
        config = default_config()
    entries = config.get("checks", [])
    for e in entries:
        if e.get("name") not in CHECKS:
            raise ValueError(f"unknown check name {e.get('name')!r}")
        randomized = e.get("name") in ("chain_roundtrip",)
        if randomized and "seed" not in e:
            raise ValueError(f"check {e['name']} requires a seed")
    payloads = [json.dumps(e, sort_keys=True) for e in entries]
    if jobs > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(_run_entry_tuple, payloads))
    else:
        rows = [_run_entry_tuple(p) for p in payloads]
    rows.sort(key=lambda r: (r["check"], r["spec"]))
    if not with_timestamp:
        for r in rows:
            r["runtime_ms"] = 0
    report: Dict[str, object] = {
        "passed": all(r["verdict"] for r in rows),
        "total": len(rows),
        "failures": sum(1 for r in rows if not r["verdict"]),
        "results": rows,
    }
    if with_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return report


def report_to_csv(report: Dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check", "spec", "verdict", "witness_digest", "runtime_ms"])
    for r in report["results"]:
        writer.writerow(
            [r["check"], r["spec"], r["verdict"], r["witness_digest"], r["runtime_ms"]]
        )
    return buf.getvalue()
