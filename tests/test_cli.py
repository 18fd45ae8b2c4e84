import hashlib
import json

import pytest
from click.testing import CliRunner

from latmod.cli import main
from latmod.schemes import mu_ideal


@pytest.fixture
def runner():
    return CliRunner()


def test_toric_check_torus_true_exit0(runner):
    res = runner.invoke(main, ["toric", "check-torus", "--n", "2", "--r", "1", "--N", "1"])
    assert res.exit_code == 0
    assert res.output.strip().endswith("true")


def test_toric_s_set_count(runner):
    res = runner.invoke(main, ["toric", "s-set", "--n", "2", "--r", "1", "--N", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["count"] == 7


def test_toric_chi(runner):
    res = runner.invoke(main, ["toric", "chi", "--n", "2", "--r", "1", "--N", "1"])
    doc = json.loads(res.output)
    assert sum(doc["chi"]) == 0
    assert len(doc["support"]) == 3


def test_res_sigma_fiber_prints_count(runner):
    res = runner.invoke(main, ["res", "sigma-fiber", "--g", "2"])
    assert res.exit_code == 0
    assert res.output.strip() == "5"


def test_unknown_flag_exits_2(runner):
    res = runner.invoke(main, ["toric", "s-set", "--frobnicate", "1"])
    assert res.exit_code == 2


def test_missing_required_exits_2(runner):
    res = runner.invoke(main, ["mu", "build", "--n", "2"])
    assert res.exit_code == 2


def test_mu_build_artifact(runner, tmp_path):
    out = tmp_path / "mu.json"
    res = runner.invoke(
        main,
        ["mu", "build", "--n", "2", "--r", "1", "--N", "1", "--out", str(out)],
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["field"] == "QQ"
    assert len(doc["generators"]) == 4


def test_chain_normal_form_roundtrip(runner, tmp_path):
    out = tmp_path / "nf.json"
    args = [
        "chain", "normal-form",
        "--n", "2", "--r", "1", "--N", "1", "--d", "1,1",
        "--q", "5", "--tau", "0", "--seed", "11", "--out", str(out),
    ]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["verified"] is True
    assert len(doc["psi"]) == 2


@pytest.mark.parametrize(
    "tau, digest",
    [
        ("0", "22ad1a0e631f737fd9451fc98c695043342178a7a79226480679d61f42f5d38b"),
        ("2", "d28653769daf0eee72e65bae774d43e536cfe2ba5ed0f262354035220e024443"),
    ],
)
def test_chain_normal_form_output_pinned(runner, tau, digest):
    """The seeded frames, the point and psi are fixed by the seed: the
    output's sha256 is pinned for a zero and a unit tau."""
    res = runner.invoke(
        main,
        [
            "chain", "normal-form",
            "--n", "3", "--r", "1", "--N", "1", "--d", "1,2",
            "--q", "5", "--tau", tau, "--seed", "7",
        ],
    )
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, stdout_digest, out_digest, out_stdout",
    [
        (
            ["res", "sigma-fiber", "--g", "2"],
            "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06",
            "31656256de1cff3d22c35342bc6c03f7d5b43808d039123ad9c316d584780a81",
            "5\n",
        ),
        (
            ["toric", "check-torus", "--n", "3", "--r", "1", "--N", "2"],
            "58f24983f4c2102efe3bcef719a152c99fcccdf2fd555ef459d4d7880c968d48",
            "fd3447f00f1754aca085a641ee12d26e8f6247b1c9c641b640774f5ff64fd132",
            "true\n",
        ),
    ],
)
def test_certificate_commands_output_pinned(
    runner, tmp_path, args, stdout_digest, out_digest, out_stdout
):
    """The sha256 of the stdout and of the --out document are pinned, so
    that the commands' output does not depend on how the verdict is
    reached."""
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == stdout_digest
    out = tmp_path / "doc.json"
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 0
    assert res.output == out_stdout
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest


def test_byte_identical_reruns(runner, tmp_path):
    """Same inputs and seeds reproduce artifacts byte for byte."""
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        res = runner.invoke(
            main,
            [
                "chain", "normal-form",
                "--n", "2", "--r", "1", "--N", "1", "--d", "1,1",
                "--q", "7", "--tau", "3", "--seed", "99", "--out", str(out),
            ],
        )
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_run_small_config(runner, tmp_path):
    config = {
        "checks": [
            {"name": "sigma_fiber", "params": {"g": 1}},
            {"name": "torus_kernel", "params": {"n": 2, "r": 1, "N": 1}},
            {"name": "s_set_count", "params": {"n": 2, "r": 1, "N": 1, "expected": 7}},
        ]
    }
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    res = runner.invoke(
        main,
        [
            "verify", "run",
            "--config", str(cfg),
            "--out", str(out),
            "--no-timestamp",
        ],
    )
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["total"] == 3
    for row in report["results"]:
        assert {"check", "spec", "verdict", "witness_digest", "runtime_ms"} <= set(row)
    # CSV mirror exists
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "check,spec,verdict,witness_digest,runtime_ms"


def test_verify_run_jobs_default_follows_affinity(runner, tmp_path, monkeypatch):
    """Without --jobs the suite gets the CPUs in the affinity mask, not the
    machine's count."""
    import latmod.cli

    seen = []
    run_suite = latmod.cli.run_suite

    def spy(config, jobs=1, **kw):
        seen.append(jobs)
        return run_suite(config, jobs=jobs, **kw)

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(latmod.cli, "run_suite", spy)
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"checks": [{"name": "sigma_fiber", "params": {"g": 1}}]}))
    res = runner.invoke(main, ["verify", "run", "--config", str(cfg), "--no-timestamp"])
    assert res.exit_code == 0, res.output
    assert seen == [1]


def test_verify_run_reproducible_no_timestamp(runner, tmp_path):
    """Byte-identical reports when the wall-clock fields are suppressed."""
    config = {
        "checks": [
            {"name": "sigma_fiber", "params": {"g": 1}},
            {
                "name": "chain_roundtrip",
                "params": {"n": 2, "r": 1, "N": 1, "d": [1, 1], "q": 5, "trials": 5},
                "seed": 4242,
            },
        ]
    }
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(config))
    blobs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        res = runner.invoke(
            main,
            ["verify", "run", "--config", str(cfg), "--out", str(out), "--no-timestamp"],
        )
        assert res.exit_code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_crashing_check_becomes_failed_row(monkeypatch):
    """A check that raises costs its own row, not the whole report."""
    from latmod import suite
    from latmod.errors import ResourceLimitError

    def boom(params, seed):
        raise ResourceLimitError("pair queue exceeded 7 during Buchberger")

    monkeypatch.setitem(suite.CHECKS, "sigma_fiber", boom)
    config = {
        "checks": [
            {"name": "sigma_fiber", "params": {"g": 1}},
            {"name": "s_set_count", "params": {"n": 2, "r": 1, "N": 1, "expected": 7}},
        ]
    }
    report = suite.run_suite(config, jobs=1, with_timestamp=False)
    assert (report["passed"], report["total"], report["failures"]) == (False, 2, 1)
    crashed, ok = report["results"][1], report["results"][0]
    assert (crashed["check"], crashed["spec"], crashed["verdict"]) == ("sigma_fiber", "g=1", False)
    assert crashed["details"] == {
        "error": "ResourceLimitError: pair queue exceeded 7 during Buchberger"
    }
    assert ok["check"] == "s_set_count" and ok["verdict"] is True


def test_parallel_report_equals_serial():
    """run_suite(jobs=2) gives the serial report, a crashing check included."""
    from latmod import suite

    config = {
        "checks": [
            {"name": "sigma_fiber", "params": {"g": 0}},
            {"name": "torus_kernel", "params": {"n": 2, "r": 1, "N": 1}},
            {
                "name": "chain_roundtrip",
                "params": {"n": 2, "r": 1, "N": 1, "d": [1, 1], "q": 5, "trials": 20},
                "seed": 3,
            },
            {"name": "s_set_count", "params": {"n": 2, "r": 1, "N": 1, "expected": 7}},
            {"name": "open_cell", "params": {"n": 2, "r": 1, "N": 1}},
        ]
    }
    serial = suite.run_suite(config, jobs=1, with_timestamp=False)
    assert (serial["total"], serial["failures"]) == (5, 1)
    crashed = next(r for r in serial["results"] if r["check"] == "sigma_fiber")
    assert crashed["details"] == {"error": "ValueError: need g >= 1"}
    assert suite.run_suite(config, jobs=2, with_timestamp=False) == serial


def test_verify_empty_config_passes(runner, tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"checks": []}))
    res = runner.invoke(main, ["verify", "run", "--config", str(cfg)])
    assert res.exit_code == 0


def test_verify_unknown_check_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"checks": [{"name": "nonsense", "params": {}}]}))
    res = runner.invoke(main, ["verify", "run", "--config", str(cfg)])
    assert res.exit_code == 2


def test_sym_check_shift(runner):
    res = runner.invoke(main, ["sym", "check-shift", "--n", "2", "--r", "1", "--N", "1"])
    assert res.exit_code == 0
    assert res.output.strip() == "true"


def test_sym_check_involution(runner):
    res = runner.invoke(main, ["sym", "check-involution", "--g", "1", "--N", "1"])
    assert res.exit_code == 0
    assert res.output.strip() == "true"


@pytest.mark.parametrize(
    "args",
    [
        "check-shift --n 2 --r 1 --N 1",
        "check-shift --n 2 --r 1 --N 1 --s 1",
        "check-shift --n 3 --r 1 --N 2",
        "check-shift --n 3 --r 1 --N 2 --s 2",
        "check-shift --n 3 --r 2 --N 2 --s 3",
        "check-involution --g 1 --N 1",
        "check-involution --g 1 --N 2",
    ],
)
def test_sym_commands_output_pinned(runner, args):
    """The exit status and the sha256 of the stdout are pinned, with and
    without a single shift --s (3 is 0 modulo N + 1)."""
    res = runner.invoke(main, ["sym"] + args.split())
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == (
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"
    )


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            "mu chart --n 3 --r 1 --N 1 --d 1,2",
            "c3b2c791fc95a1910a6fce6a12a083efa69c26179965acfe929a8a5f1452bace",
        ),
        (
            "lm build --n 2 --r 1 --N 1 --d 1,1 --symplectic",
            "fc00cf314361b19fdeaeb99b0a00e097f477430baec59063a426110695604ef2",
        ),
        (
            "sigma build --g 1 --N 1",
            "dbd6d9268b75d210405d1341e3159061309cb40dfb994480d29a4c0e731514fd",
        ),
    ],
)
def test_build_commands_output_pinned(runner, args, digest):
    """The exit status and the sha256 of the stdout of the builders over QQ."""
    res = runner.invoke(main, args.split())
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


def test_res_kill_torsion_pipeline(runner, tmp_path):
    src = tmp_path / "in.json"
    doc = {
        "field": "QQ",
        "variables": ["x", "t"],
        "order": "grevlex",
        "generators": ["t*x"],
        "provenance": "test",
        "inverses": [],
        "meta": {},
    }
    src.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    res = runner.invoke(
        main, ["res", "kill-torsion", "--in", str(src), "--out", str(out)]
    )
    assert res.exit_code == 0
    result = json.loads(out.read_text())
    assert result["generators"] == ["x"]


def test_res_blowup_pipeline(runner, tmp_path):
    src = tmp_path / "plane.json"
    doc = {
        "field": "QQ",
        "variables": ["x", "y"],
        "order": "grevlex",
        "generators": [],
        "provenance": "plane",
        "inverses": [],
        "meta": {},
    }
    src.write_text(json.dumps(doc))
    out = tmp_path / "bl.json"
    res = runner.invoke(
        main,
        ["res", "blowup", "--in", str(src), "--center", "x,y", "--chart", "0", "--out", str(out)],
    )
    assert res.exit_code == 0
    result = json.loads(out.read_text())
    assert result["empty"] is False
    assert len(result["generators"]) == 1


def test_lm_build(runner):
    res = runner.invoke(
        main, ["lm", "build", "--n", "2", "--r", "1", "--N", "1", "--d", "1,1"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["variables"] == ["w0_2_1", "w1_2_1", "t"]


def test_sigma_build(runner):
    res = runner.invoke(main, ["sigma", "build", "--g", "1", "--N", "1"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert "J0_1_1_1" in doc["variables"]


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["res", "kill-torsion"],
            "f7de065ca6133b5adff2dd33b2e2547a65bd89c68fe21e94c82e0cd746382176",
        ),
        (
            ["res", "blowup", "--center", "Pi0_1_1,t", "--chart", "0"],
            "d0f002ad2571c00cbfa5c78e7a3de00c7fa70321d98dfba825d3db2f268c3d15",
        ),
    ],
    ids=["kill-torsion", "blowup"],
)
def test_res_output_does_not_depend_on_the_input_order(runner, tmp_path, args, digest):
    """Saturation computes in a block order and a blowup chart in grevlex,
    so a mu(2,1,1) chart tagged lex gives the bytes of the grevlex one;
    the sha256 of those bytes is pinned."""
    doc = json.loads(mu_ideal(2, 1, 1).to_json())
    outputs = []
    for order in ("grevlex", "lex"):
        src = tmp_path / f"{order}.json"
        src.write_text(json.dumps(dict(doc, order=order)))
        out = tmp_path / f"{order}-out.json"
        res = runner.invoke(main, args + ["--in", str(src), "--out", str(out)])
        assert res.exit_code == 0, res.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]).hexdigest() == digest
