"""Command-line front end.

Subcommands: mu, sigma, lm, chain, toric, res, sym, verify.  Artifacts
are JSON (plus a CSV mirror for suite reports); re-running a command
with identical inputs and seeds reproduces them byte for byte when
--no-timestamp is passed.  The only environment knob is LATMOD_OUT_DIR,
which prefixes relative --out paths.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from typing import Optional

import click

from .chains import ChainSpec
from .chainnf import chain_normal_form, conjugated_chain_point, random_frame
from .characters import character_data
from .chart import ChartIdeal
from .errors import NormalFormFailure
from .indexset import enumerate_index_set
from .kernel import usable_cpus
from .poly import GF
from .resolution import blowup_chart, kill_t_torsion, sigma_fiber_freecount
from .schemes import (
    local_model_ideal,
    mu_chart_ideal,
    mu_ideal,
    sigma_ideal,
    symplectic_local_model_ideal,
)
from .suite import CHECKS, default_config, report_to_csv, run_suite


def _resolve_out(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get("LATMOD_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(doc: str, out: Optional[str]) -> None:
    out = _resolve_out(out)
    if out:
        with open(out, "w") as fh:
            fh.write(doc)
            if not doc.endswith("\n"):
                fh.write("\n")
    else:
        click.echo(doc)


def _parse_d(d: str) -> tuple:
    try:
        return tuple(int(x) for x in d.split(","))
    except ValueError:
        raise click.UsageError(f"--d must be a comma list of integers, got {d!r}")


def _shape_options(command):
    """The --n, --r and --N options of every command on one chain shape
    (added last to first, so that --help lists them in that order)."""
    for decls in (("--N", "bign"), ("--r",), ("--n",)):
        command = click.option(*decls, type=int, required=True)(command)
    return command


def _verdict(ok) -> None:
    """Print a check's verdict as true or false; exit 1 when it is false."""
    click.echo(str(bool(ok)).lower())
    if not ok:
        sys.exit(1)


@click.group()
def main():
    """Exact workbench for lattice-chain local models."""


# -- mu ---------------------------------------------------------------------------

@main.group()
def mu():
    """Cyclic-product scheme on parabolic matrices."""


@mu.command("build")
@_shape_options
@click.option("--out", type=str, default=None)
def mu_build(n, r, bign, out):
    chart = mu_ideal(n, r, bign)
    _emit(chart.to_json(indent=2), out)


@mu.command("chart")
@_shape_options
@click.option("--d", type=str, required=True, help="comma list, N+1 entries")
@click.option(
    "--minors",
    "minors_json",
    type=str,
    default=None,
    help='JSON [[rows, cols], ...] per slot (0-indexed); default: standard chart',
)
@click.option("--out", type=str, default=None)
def mu_chart(n, r, bign, d, minors_json, out):
    spec = ChainSpec(n, r, bign, _parse_d(d))
    choices = json.loads(minors_json) if minors_json else None
    chart = mu_chart_ideal(spec, choices)
    _emit(chart.to_json(indent=2), out)


# -- sigma --------------------------------------------------------------------------

@main.group()
def sigma():
    """Symplectic pairing scheme."""


@sigma.command("build")
@click.option("--g", type=int, required=True)
@click.option("--N", "bign", type=int, required=True)
@click.option("--out", type=str, default=None)
def sigma_build(g, bign, out):
    chart = sigma_ideal(g, bign)
    _emit(chart.to_json(indent=2), out)


# -- lm (chain local models) -----------------------------------------------------------

@main.group()
def lm():
    """Grassmannian-chart chain models."""


@lm.command("build")
@_shape_options
@click.option("--d", type=str, required=True)
@click.option("--pivots", type=str, default=None, help="JSON list of row subsets")
@click.option("--symplectic", is_flag=True, default=False)
@click.option("--out", type=str, default=None)
def lm_build(n, r, bign, d, pivots, symplectic, out):
    spec = ChainSpec(n, r, bign, _parse_d(d), symplectic=symplectic)
    piv = json.loads(pivots) if pivots else None
    if symplectic:
        chart = symplectic_local_model_ideal(spec, piv)
    else:
        chart = local_model_ideal(spec, piv)
    _emit(chart.to_json(indent=2), out)


# -- chain ---------------------------------------------------------------------------

@main.group()
def chain():
    """Chain normal form over finite fields."""


@chain.command("normal-form")
@_shape_options
@click.option("--d", type=str, required=True)
@click.option("--q", type=int, required=True)
@click.option("--tau", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=str, default=None)
def chain_nf(n, r, bign, d, q, tau, seed, out):
    """Seeded round trip: conjugate shift powers by random frames, then
    recover a normal form and verify it exactly."""
    import random

    spec = ChainSpec(n, r, bign, _parse_d(d))
    field = GF(q)
    rng = random.Random(seed)
    frames = [random_frame(rng, n, q) for _ in range(bign + 1)]
    point = conjugated_chain_point(spec, frames, tau, field)
    try:
        psi = chain_normal_form(spec, point, tau, field)
    except NormalFormFailure as exc:
        click.echo(f"failure: {exc}")
        sys.exit(1)
    doc = json.dumps(
        {
            "spec": {"n": n, "r": r, "N": bign, "d": list(spec.d)},
            "q": q,
            "tau": tau % q,
            "seed": seed,
            "point": point,
            "psi": psi,
            "verified": True,
        },
        indent=2,
        sort_keys=True,
    )
    _emit(doc, out)


# -- toric ----------------------------------------------------------------------------

@main.group()
def toric():
    """Index set and character-lattice checks."""


@toric.command("s-set")
@_shape_options
@click.option("--out", type=str, default=None)
def toric_sset(n, r, bign, out):
    S = enumerate_index_set(n, r, bign)
    doc = json.dumps(
        {
            "n": n,
            "r": r,
            "N": bign,
            "count": len(S),
            "elements": [[list(p) for p in e.pairs] for e in S],
        },
        indent=2,
        sort_keys=True,
    )
    _emit(doc, out)


@toric.command("chi")
@_shape_options
@click.option("--out", type=str, default=None)
def toric_chi(n, r, bign, out):
    data = character_data(n, r, bign)
    doc = json.dumps(
        {
            "n": n,
            "r": r,
            "N": bign,
            "chi": list(data.chi),
            "support": [
                [[list(p) for p in e.pairs], c]
                for e, c in zip(data.S, data.chi)
                if c
            ],
        },
        indent=2,
        sort_keys=True,
    )
    _emit(doc, out)


@toric.command("check-torus")
@_shape_options
@click.option("--out", type=str, default=None)
def toric_check(n, r, bign, out):
    params = {"n": n, "r": r, "N": bign}
    kernel_ok, kernel = CHECKS["torus_kernel"](params, 0)
    quotient_ok, quotient = CHECKS["quotient_subtorus"](params, 0)
    doc = json.dumps(
        {
            "n": n,
            "r": r,
            "N": bign,
            "kernel_is_torus": kernel_ok,
            "invariants": kernel["invariants"],
            "quotient_check": quotient_ok,
            "quotient_invariants": quotient["invariants"],
        },
        indent=2,
        sort_keys=True,
    )
    _emit(doc, out)
    _verdict(kernel_ok and quotient_ok)


# -- res ------------------------------------------------------------------------------

@main.group()
def res():
    """Blowup charts, torsion kill, fiber census."""


@res.command("blowup")
@click.option("--in", "infile", type=str, required=True, help="chart ideal JSON")
@click.option("--center", type=str, required=True, help="comma list of polynomials")
@click.option("--chart", "chart_index", type=int, required=True)
@click.option("--out", type=str, default=None)
def res_blowup(infile, center, chart_index, out):
    with open(infile) as fh:
        base = ChartIdeal.from_json(fh.read())
    ring = base.ring
    fs = [ring.parse(s) for s in center.split(",")]
    bl = blowup_chart(base, fs, chart_index)
    doc = json.loads(bl.chart.to_json())
    doc["empty"] = bl.empty
    doc["ratio_vars"] = [v for v in bl.ratio_vars if v]
    _emit(json.dumps(doc, indent=2, sort_keys=True), out)


@res.command("kill-torsion")
@click.option("--in", "infile", type=str, required=True)
@click.option("--out", type=str, default=None)
def res_kill(infile, out):
    with open(infile) as fh:
        chart = ChartIdeal.from_json(fh.read())
    _emit(kill_t_torsion(chart).to_json(indent=2), out)


@res.command("sigma-fiber")
@click.option("--g", type=int, required=True)
@click.option("--out", type=str, default=None)
def res_fiber(g, out):
    ok, details = CHECKS["sigma_fiber"]({"g": g}, 0)
    if out:
        census = sigma_fiber_freecount(g)
        doc = {
            "g": g,
            "free_count": census.free_count,
            "free_variables": list(census.free_variables),
            "relation_log": [asdict(e) for e in census.log],
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True), out)
    click.echo(str(details["free_count"]))
    if not ok:
        sys.exit(1)


# -- sym ------------------------------------------------------------------------------

@main.group()
def sym():
    """Equivariance checks on the cyclic-product ideal."""


@sym.command("check-shift")
@_shape_options
@click.option("--s", type=int, default=None, help="single shift; default all")
def sym_shift(n, r, bign, s):
    params = {"n": n, "r": r, "N": bign}
    if s is not None:
        params["s"] = s
    _verdict(CHECKS["shift_stability"](params, 0)[0])


@sym.command("check-involution")
@click.option("--g", type=int, required=True)
@click.option("--N", "bign", type=int, required=True)
def sym_involution(g, bign):
    _verdict(CHECKS["involution_stability"]({"g": g, "N": bign}, 0)[0])


# -- verify ----------------------------------------------------------------------------

@main.group()
def verify():
    """Aggregated verification suite."""


@verify.command("run")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--out", type=str, default=None)
@click.option("--csv", "csv_path", type=str, default=None)
@click.option("--jobs", type=int, default=None, help="default: the CPUs this process may use")
@click.option("--no-timestamp", is_flag=True, default=False)
def verify_run(config_path, out, csv_path, jobs, no_timestamp):
    if jobs is None:
        jobs = usable_cpus()
    if config_path:
        with open(config_path) as fh:
            config = json.load(fh)
    else:
        config = default_config()
    try:
        report = run_suite(config, jobs=jobs, with_timestamp=not no_timestamp)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    doc = json.dumps(report, indent=2, sort_keys=True)
    _emit(doc, out)
    if csv_path or out:
        mirror = csv_path or (os.path.splitext(out)[0] + ".csv")
        mirror = _resolve_out(mirror)
        with open(mirror, "w") as fh:
            fh.write(report_to_csv(report))
    click.echo(
        f"{report['total'] - report['failures']}/{report['total']} checks passed"
    )
    if not report["passed"]:
        sys.exit(1)


@verify.command("list-checks")
def verify_list():
    for name in sorted(CHECKS):
        click.echo(name)


if __name__ == "__main__":
    main()
