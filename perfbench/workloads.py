"""The benchmark's workloads: inputs built from a seed, the timed call, and
the outputs that are checked against the pins.

Imports of latmod happen inside the functions, so that this module can be
loaded (by the tests and the runner) without the package on the path.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, List, Tuple

CERT_SMALL = (
    "generic_fiber_mu", "generic_fiber_lm", "shift_stability", "involution_stability",
    "torsion_idempotent", "blowup_principal", "open_cell", "diagonal_identities",
    "sigma_fiber",
)
CENSUS = (
    "mu_dimension", "chain_census", "chain_roundtrip", "glued_count", "s_set_count",
    "torus_kernel", "quotient_subtorus",
)
# Left out of every workload: 54 s of the full suite's 70 s; gb_large
# times one half of it (the basis of mu(4,2,2)).
EXCLUDED = {("involution_stability", '{"N": 2, "g": 2}')}

JOBS = {"gb_large": 1, "cert_small": 1, "census": 1, "suite_jobs2": 2}
NAMES = tuple(JOBS)


def sha256_json(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def suite_config(names, seed: int) -> Dict:
    """default_config() restricted to ``names``, in its own order; the seed
    sets the seeds of the randomized chain_roundtrip checks."""
    from latmod.suite import default_config

    rng = random.Random(seed)
    checks = []
    for entry in default_config()["checks"]:
        key = (entry["name"], json.dumps(entry.get("params", {}), sort_keys=True))
        if entry["name"] not in names or key in EXCLUDED:
            continue
        entry = dict(entry)
        if entry["name"] == "chain_roundtrip":
            entry["seed"] = rng.randrange(1 << 31)
        checks.append(entry)
    return {"checks": checks}


def gb_large_ideal(seed: int):
    """The ideal of mu(4,2,2) with its generators in a seeded order."""
    from latmod.ideals import PolyIdeal
    from latmod.schemes import mu_ideal

    mu = mu_ideal(4, 2, 2)
    gens = list(mu.ideal.generators)
    random.Random(seed).shuffle(gens)
    return PolyIdeal(mu.ring, gens, mu.ideal.order)


def basis_outputs(basis) -> List[Dict]:
    """One item for a reduced basis: its sha256 and its size."""
    payload = [
        [[list(e), str(c)] for e, c in sorted(g.terms.items(), reverse=True)]
        for g in basis
    ]
    return [{
        "id": "basis",
        "sha256": sha256_json(payload),
        "elements": len(basis),
        "terms": sum(len(g.terms) for g in basis),
    }]


def report_outputs(report: Dict) -> List[Dict]:
    """One item per report row, and one for the whole report."""
    items = [
        {
            "id": f"{r['check']}[{r['spec']}]",
            "verdict": r["verdict"],
            "witness_digest": r["witness_digest"],
        }
        for r in report["results"]
    ]
    items.append({"id": "report", "sha256": sha256_json(report)})
    return items


def prepare(workload: str, seed: int) -> Tuple[Callable[[], object], Callable[[object], List[Dict]]]:
    """Build the inputs; return the timed call and its output extractor."""
    if workload == "gb_large":
        ideal = gb_large_ideal(seed)
        return ideal.groebner_basis, basis_outputs
    from latmod.suite import run_suite

    names = {
        "cert_small": CERT_SMALL,
        "census": CENSUS,
        "suite_jobs2": CERT_SMALL + CENSUS,
    }[workload]
    config = suite_config(names, seed)
    jobs = JOBS[workload]
    return (
        lambda: run_suite(config, jobs=jobs, with_timestamp=False),
        report_outputs,
    )


def check_outputs(workload: str, items: List[Dict], pins: Dict) -> Tuple[int, List[str]]:
    """Items attempted, and the names of those that fail the pins.

    Each item must have a pin and match every pinned field; a row must
    also have a true verdict.  A pinned item that is missing fails too.
    """
    expected = pins["outputs"][workload]
    failed = []
    seen = set()
    for item in items:
        pin = expected.get(item["id"])
        seen.add(item["id"])
        ok = pin is not None and all(item.get(k) == v for k, v in pin.items())
        if "verdict" in item and item["verdict"] is not True:
            ok = False
        if not ok:
            failed.append(item["id"])
    failed.extend(sorted(set(expected) - seen))
    return len(seen | set(expected)), failed
