"""Command-line behavior: determinism, exit codes, argument plumbing.

``test_console_script_installed`` runs the ``gkz`` script from ``PATH`` and
is skipped where it is absent.  Install it with ``pip install -e .``; that
needs setuptools >= 68, or ``wheel`` installed next to setuptools >= 64.
``test_console_script_entry_point`` covers the same entry point without
an install.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from gkz.cli import main

_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _no_outside_tolerance(monkeypatch):
    # GKZ_TOL from the calling shell must not leak into default-tolerance
    # runs; the tolerance tests set it themselves
    monkeypatch.delenv("GKZ_TOL", raising=False)


@pytest.fixture
def cli(capsys):
    def run(*args):
        code = main(list(args))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return run


# --------------------------------------------------------------------------
# output discipline
# --------------------------------------------------------------------------


def test_repeated_invocations_are_byte_identical(cli):
    first = cli("standard-form", "--catalog", "square")
    second = cli("standard-form", "--catalog", "square")
    assert first == second
    third = cli("verify", "pfaff", "--samples", "3")
    fourth = cli("verify", "pfaff", "--samples", "3")
    assert third == fourth and third[0] == 0


def test_canonical_json_layout(cli):
    code, out, _ = cli("standard-form", "--catalog", "quadric")
    assert code == 0
    assert out == (
        '{"blocks":[[1,2,3]],"m":1,"name":"quadric","r":1,'
        '"transformed":[[1,1,1],[0,1,2]],"u_matrix":[[1,0],[0,1]]}\n'
    )


def test_xi_quadric(cli):
    code, out, err = cli("xi", "--catalog", "quadric")
    assert (code, out, err) == (0, "[1,0]\n", "")


@pytest.mark.skipif(
    shutil.which("gkz") is None,
    reason="gkz script not on PATH; install with `pip install -e .` "
    "(setuptools >= 68, or wheel with setuptools >= 64)",
)
def test_console_script_installed():
    proc = subprocess.run(
        ["gkz", "xi", "--catalog", "quadric"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[1,0]\n"


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["gkz"] == "gkz.cli:main"
    module, func = scripts["gkz"].split(":")
    # what a console-script wrapper does: main() reads sys.argv and its
    # return value becomes the exit code
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "xi", "--catalog", "quadric"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stdout) == (0, "[1,0]\n")


def test_catalog_listing(cli):
    code, out, _ = cli("catalog")
    assert code == 0
    names = json.loads(out)["entries"]
    assert names == sorted(names)
    for needed in ("gauss", "quadric", "square", "appell_f4", "pfq(2)"):
        assert needed in names


def test_catalog_entry_with_params(cli):
    code, out, _ = cli("catalog", "--catalog", "square")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "square"
    assert doc["matrix"] == [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1]]
    assert len(doc["params"]) == 3
    assert all(p.startswith(f"beta{i + 1} = ") for i, p in enumerate(doc["params"]))


def test_emit_then_load_round_trip(cli, tmp_path):
    code, out, _ = cli("catalog", "--catalog", "square")
    assert code == 0
    path = tmp_path / "square.json"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = cli("validate", str(path))
    assert code == 0
    doc = json.loads(out2)
    assert doc["valid"] is True
    assert doc["name"] == "square"
    assert (doc["d"], doc["n"]) == (3, 4)
    code, xi_file, _ = cli("xi", str(path))
    code2, xi_cat, _ = cli("xi", "--catalog", "square")
    assert code == code2 == 0
    assert xi_file == xi_cat


def test_out_file_matches_stdout(cli, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = cli("symmetries", "--catalog", "quadric", "--out", str(path))
    assert code == 0
    assert out == ""
    code2, stdout, _ = cli("symmetries", "--catalog", "quadric")
    assert path.read_text(encoding="utf-8") == stdout


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------


def test_usage_errors_exit_1(cli, tmp_path):
    assert cli()[0] == 1
    assert cli("xi")[0] == 1  # no source at all
    assert cli("xi", "--catalog", "nosuch")[0] == 1
    path = tmp_path / "c.json"
    path.write_text('{"matrix": [[1,1,1],[0,1,2]]}', encoding="utf-8")
    assert cli("xi", str(path), "--catalog", "quadric")[0] == 1
    code, _, err = cli("eval", "--catalog", "quadric", "--beta=-0.6,-0.35",
                       "--x=1,0.5,1", "--cycle", "spiral")
    assert code == 1 and "spiral" in err
    code, _, err = cli("eval", "--catalog", "quadric", "--beta=-0.6,nope",
                       "--x=1,0.5,1")
    assert code == 1 and "beta" in err
    # one source rule for every subcommand: a positional source and
    # --catalog together are an error, never a silent pick
    for cmd in (("catalog",), ("verify", "pde"), ("verify", "binomial"),
                ("verify", "group")):
        code, _, err = cli(*cmd, "quadric", "--catalog", "square")
        assert code == 1 and "--catalog" in err


def test_parse_errors_carry_location(cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"matrix": [[1,1,1],[0,1,2]', encoding="utf-8")
    code, _, err = cli("xi", str(bad))
    assert code == 1
    assert f"{bad}:1:" in err
    nomatrix = tmp_path / "nomatrix.json"
    nomatrix.write_text('{"name": "thing"}', encoding="utf-8")
    code, _, err = cli("xi", str(nomatrix))
    assert code == 1 and "matrix" in err
    floats = tmp_path / "floats.json"
    floats.write_text('{"matrix": [[1.5, 1], [0, 1]]}', encoding="utf-8")
    code, _, err = cli("xi", str(floats))
    assert code == 1 and "integer" in err


def test_unwritable_out_is_io_error(cli, tmp_path):
    target = tmp_path / "missing_dir" / "report.json"
    code, _, err = cli("xi", "--catalog", "quadric", "--out", str(target))
    assert code == 1
    assert "cannot write" in err


def test_invalid_configuration_exits_2(cli, tmp_path):
    # (1) and (2) admit no covector with value 1 on both columns
    noxi = tmp_path / "noxi.json"
    noxi.write_text('{"matrix": [[1, 2]]}', encoding="utf-8")
    code, _, err = cli("validate", str(noxi))
    assert code == 2 and err


def test_mislabeled_file_keeps_its_own_matrix(cli, tmp_path):
    # square's matrix under gauss's name: the matrix picks the entry
    square = [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1]]
    path = tmp_path / "mislabeled.json"
    path.write_text(json.dumps({"name": "gauss", "matrix": square}),
                    encoding="utf-8")
    code, out, _ = cli("standard-form", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "gauss"
    u = doc["u_matrix"]
    assert u == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]  # square's chart
    assert doc["transformed"] == [
        [sum(u[i][k] * square[k][j] for k in range(3)) for j in range(4)]
        for i in range(3)
    ]
    code, out, _ = cli("catalog", str(path))
    code2, want, _ = cli("catalog", "--catalog", "square")
    assert code == code2 == 0
    assert json.loads(out)["params"] == json.loads(want)["params"]


def test_unnamed_catalog_matrix_takes_the_entry_chart(cli, tmp_path):
    path = tmp_path / "unnamed.json"
    path.write_text('{"matrix": [[1,1,1,1],[0,0,1,1],[0,1,0,1]]}',
                    encoding="utf-8")
    code, out, _ = cli("standard-form", str(path))
    code2, want, _ = cli("standard-form", "--catalog", "square")
    assert code == code2 == 0
    doc, ref = json.loads(out), json.loads(want)
    assert doc["name"] == "" and ref["name"] == "square"
    del doc["name"], ref["name"]
    assert doc == ref


def test_missing_block_structure_exits_2(cli):
    code, _, err = cli("standard-form", "--catalog", "quadric", "--m", "2")
    assert code == 2 and "blocks" in err


def test_square_has_two_block_chart(cli):
    code, out, _ = cli("standard-form", "--catalog", "square", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"] == [[1, 2], [3, 4]]
    assert doc["transformed"][0] == [1, 1, 0, 0]
    assert doc["transformed"][1] == [0, 0, 1, 1]


def test_numeric_failure_exits_3(cli):
    # the kernel 1 - 3w + w^2 has roots on the positive axis
    code, _, err = cli(
        "eval", "--catalog", "quadric", "--beta=-0.6,-0.35",
        "--x=1,-3,1", "--tol", "1e-6",
    )
    assert code == 3 and err


# --------------------------------------------------------------------------
# tolerance plumbing
# --------------------------------------------------------------------------

_QUADRIC_EVAL = ("eval", "--catalog", "quadric", "--beta", "-0.6,-0.35",
                 "--x", "1,0.5,1")


def test_env_tolerance_is_read(cli, monkeypatch):
    monkeypatch.setenv("GKZ_TOL", "1e-6")
    code, out, _ = cli(*_QUADRIC_EVAL)
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_flag_overrides_env(cli, monkeypatch):
    monkeypatch.setenv("GKZ_TOL", "not-a-number")
    code, _, err = cli(*_QUADRIC_EVAL)
    assert code == 1 and "GKZ_TOL" in err
    code, out, _ = cli(*_QUADRIC_EVAL, "--tol", "1e-8")
    assert code == 0
    assert json.loads(out)["converged"] is True


# --------------------------------------------------------------------------
# evaluation through the CLI
# --------------------------------------------------------------------------


def test_eval_interval_chart_value(cli):
    # two-block chart of the gauss entry on the unit interval carries the
    # classical integral B(b, c-b) 2F1(a, b; c; z) at (0.3, 0.5, 1.7)
    code, out, _ = cli(
        "eval", "--catalog", "gauss", "--m", "2",
        "--beta", "0.7,-0.5,-0.3", "--x", "1,-1,1,-0.25",
        "--cycle", "interval", "--tol", "1e-10",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    got = complex(doc["value"][0], doc["value"][1])
    want = complex(mp.beta(0.5, 1.2) * mp.hyp2f1(0.3, 0.5, 1.7, 0.25))
    assert abs(got - want) <= 1e-8 * abs(want)


def test_eval_derivative_plumbing(cli):
    from gkz import QuadratureSettings, catalog, derivative_integral, positive_axis

    code, out, _ = cli(*_QUADRIC_EVAL, "--u", "0,1,0", "--tol", "1e-8")
    assert code == 0
    doc = json.loads(out)
    direct = derivative_integral(
        catalog("quadric").standard_form(1),
        (-0.6, -0.35),
        (1, 0.5, 1),
        (0, 1, 0),
        (positive_axis(),),
        QuadratureSettings(rel_tol=1e-8, abs_tol=1e-14),
    )
    got = complex(doc["value"][0], doc["value"][1])
    assert abs(got - direct.value) <= 1e-12 * abs(direct.value)


def test_eval_accepts_negative_comma_lists(cli):
    def run(*beta):
        return cli("eval", "--catalog", "quadric", *beta, "--x", "1,0.5,1")

    first = run("--beta", "-0.6,-0.35")
    assert first[0] == 0 and first[2] == ""
    assert run("--beta=-0.6,-0.35") == first
    assert run("--beta", "-.6,-0.35") == first
    code, out, _ = run("--beta", "-0.6-0.1j,-0.35")
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_option_after_beta_is_not_a_value(cli):
    code, _, err = cli("eval", "--catalog", "quadric", "--beta", "--x",
                       "1,0.5,1")
    assert code == 1 and "--beta" in err
    # a dash token that is no number stays an option even when unknown
    code, _, err = cli("eval", "--catalog", "quadric", "--beta", "-x1",
                       "--x", "1,0.5,1")
    assert code == 1 and "--beta: expected one argument" in err


def test_eval_rejects_bad_derivative_order(cli):
    code, _, err = cli(*_QUADRIC_EVAL, "--u", "1,x,0")
    assert code == 1 and "--u" in err


# --------------------------------------------------------------------------
# structured subcommands
# --------------------------------------------------------------------------


def test_validate_with_saturation_scan(cli):
    code, out, _ = cli("validate", "--catalog", "quadric", "--degree-bound", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["saturation"] == {"degree_bound": 6, "gaps": []}


def test_symmetries_square_order_eight(cli):
    code, out, _ = cli("symmetries", "--catalog", "square")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8
    assert len(doc["elements"]) == 8
    perms = {tuple(e["perm"]) for e in doc["elements"]}
    assert len(perms) == 8
    assert tuple(range(1, 5)) in perms  # 1-based identity
    for e in doc["elements"]:
        assert e["det"] in (-1, 1)


def test_transforms_quadric(cli):
    code, out, _ = cli("transforms", "--catalog", "quadric")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "quadric"
    assert doc["count"] == 2
    perms = {tuple(t["perm"]) for t in doc["transformations"]}
    assert perms == {(1, 2, 3), (3, 2, 1)}


# --------------------------------------------------------------------------
# verification subcommands
# --------------------------------------------------------------------------


def test_verify_pfaff_text_format(cli):
    code, out, _ = cli("verify", "pfaff", "--samples", "4", "--format", "text")
    assert code == 0
    assert out.startswith("PASS max_residual=")


def test_verify_pde_quadric_defaults(cli):
    code, out, _ = cli("verify", "pde", "--catalog", "quadric")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"


def test_verify_pde_negative_beta(cli):
    code, out, _ = cli("verify", "pde", "--catalog", "quadric",
                       "--beta", "-0.6,-0.35", "--x", "1,0.5,1")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_pde_needs_beta_and_x_together(cli):
    for given in (("--beta=-0.3,-0.1",), ("--x", "2,1,3")):
        code, out, err = cli("verify", "pde", "--catalog", "quadric", *given)
        assert (code, out) == (1, "")
        assert "--beta" in err and "--x" in err


def test_verify_pde_user_points_default_cycle(cli, monkeypatch):
    # with user points and no --cycle, each chart variable gets a positive
    # axis, as in eval; the integrals themselves are covered elsewhere
    import gkz.cli
    from gkz import IdentityReport, positive_axis

    seen = []

    def fake_verify_pde(config, beta, x, cycle, settings=None):
        seen.append((config.name, beta, x, cycle))
        return IdentityReport(
            description="stub", sample_points=[], lhs_values=[],
            rhs_values=[], fitted_constant=1 + 0j, residuals=[],
            verdict="pass",
        )

    monkeypatch.setattr(gkz.cli, "verify_pde", fake_verify_pde)
    code, _, err = cli("verify", "pde", "--catalog", "gauss",
                       "--beta=-0.9,-0.35,-0.45", "--x", "1,0.8,1.2,0.4")
    assert (code, err) == (0, "")
    assert seen == [("gauss", (-0.9, -0.35, -0.45), (1.0, 0.8, 1.2, 0.4),
                     (positive_axis(), positive_axis()))]


def test_verify_binomial_quadric(cli):
    code, out, _ = cli("verify", "binomial", "--catalog", "quadric", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert len(doc["samples"]) == 3


def test_verify_group_square(cli):
    code, out, _ = cli("verify", "group", "--catalog", "square", "--samples", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8
    assert doc["evaluator"] == "classical"
    assert doc["verdict"] == "pass"
    assert len(doc["elements"]) == 8


def test_verify_needs_target(cli):
    code, _, err = cli("verify")
    assert code == 1 and "target" in err


def test_f4_report_cli(cli):
    code, out, _ = cli("f4-report")
    assert code == 0
    doc = json.loads(out)
    assert doc["conclusion"] == "contradiction reproduced"
    assert doc["verdict"] == "pass"
    code, out, _ = cli("f4-report", "--format", "text")
    assert code == 0 and out.startswith("PASS ")
