"""The command table: parser shape, exit-code policy, option bounds.

The exit code of every error class is checked against the table in the
``gkz.errors`` module docstring, so the documented policy and the classes
cannot drift apart.
"""

import argparse
import re

import pytest

import gkz.cli
from gkz import errors
from gkz.cli import build_parser, main
from gkz.configs import catalog
from gkz.errors import FitUnstable, GkzError, OutOfDomain, UsageError
from gkz.symmetry import find_symmetries
from gkz.transforms import induced_transformation
from gkz.verify import SampleGrid, verify_linear_transformation


@pytest.fixture(autouse=True)
def _no_outside_tolerance(monkeypatch):
    monkeypatch.delenv("GKZ_TOL", raising=False)


@pytest.fixture
def cli(capsys):
    def run(*args):
        code = main(list(args))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return run


# --------------------------------------------------------------------------
# exit codes live on the error classes
# --------------------------------------------------------------------------


def _documented_exit_codes() -> dict:
    """Class name -> exit code from the numbered lines of the docstring."""
    table, code = {}, None
    for line in errors.__doc__.splitlines():
        head = re.match(r"([123]) \([^)]*\): ?(.*)", line)
        if head:
            code, line = int(head.group(1)), head.group(2)
        elif not line.startswith("  "):
            code = None
        if code is not None:
            for name in re.findall(r"\b[A-Z][A-Za-z]+\b", line):
                table[name] = code
    return table


def _all_errors():
    out, todo = [GkzError], [GkzError]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def test_documented_table_names_real_classes():
    table = _documented_exit_codes()
    names = {cls.__name__ for cls in _all_errors()}
    assert set(table) <= names
    assert sorted(n for n, c in table.items() if c == 1) == [
        "IoError", "ParseError", "UnknownName", "UsageError"]
    assert len([n for n, c in table.items() if c == 3]) == 8


@pytest.mark.parametrize("cls", _all_errors(), ids=lambda c: c.__name__)
def test_error_class_sets_the_exit_code(cls, cli, monkeypatch):
    def fail(source):
        raise cls(f"{source} refused")

    monkeypatch.setattr(gkz.cli, "load_config", fail)
    want = _documented_exit_codes().get(cls.__name__, 2)
    assert cls.exit_code == want
    assert cli("xi", "--catalog", "quadric") == (want, "", "error: quadric refused\n")


# --------------------------------------------------------------------------
# the parser built from the table
# --------------------------------------------------------------------------

_TOP = ["catalog", "validate", "xi", "standard-form", "symmetries",
        "transforms", "eval", "verify", "f4-report"]
_TARGETS = ["pfaff", "quadric", "pde", "binomial", "group"]
_SOURCED = {"catalog", "validate", "xi", "standard-form", "symmetries",
            "transforms", "eval", "verify pde", "verify binomial",
            "verify group"}
_TOLERANT = {"eval", "verify quadric", "verify pde", "verify binomial",
             "verify group"}


def _subcommands(parser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _leaves(parser, prefix=()):
    for name, sub in _subcommands(parser).items():
        path = prefix + (name,)
        if _subcommands(sub):
            yield from _leaves(sub, path)
        else:
            yield " ".join(path), sub


def _dests(parser) -> set:
    return {action.dest for action in parser._actions}


def test_subcommand_and_target_order():
    top = _subcommands(build_parser())
    assert list(top) == _TOP
    assert list(_subcommands(top["verify"])) == _TARGETS


def test_every_leaf_takes_out_and_format():
    leaves = dict(_leaves(build_parser()))
    assert len(leaves) == len(_TOP) - 1 + len(_TARGETS)
    for name, sub in leaves.items():
        fmt = {a.dest: a for a in sub._actions}["format"]
        assert "out" in _dests(sub), name
        assert (fmt.choices, fmt.default) == (("json", "text"), "json"), name


def test_source_and_tol_exactly_where_declared():
    for name, sub in _leaves(build_parser()):
        dests = _dests(sub)
        assert ("source" in dests) == (name in _SOURCED), name
        assert ("catalog" in dests) == (name in _SOURCED), name
        assert ("tol" in dests) == (name in _TOLERANT), name


@pytest.mark.parametrize("target, default", [
    ("pde", "gauss"), ("binomial", "quadric"), ("group", "square")])
def test_verify_default_sources(target, default, cli, monkeypatch):
    seen = []

    def record(source):
        seen.append(source)
        raise UsageError("stop")

    monkeypatch.setattr(gkz.cli, "load_config", record)
    assert cli("verify", target)[0] == 1
    assert seen == [default]


def test_every_help_exits_0(cli):
    paths = [()] + [(name,) for name in _TOP] + [
        ("verify", t) for t in _TARGETS]
    assert len(paths) == 15
    for path in paths:
        code, out, err = cli(*path, "--help")
        assert (code, err) == (0, ""), path
        assert out.startswith("usage: gkz " + " ".join(path)), path


def test_no_target_lists_the_table(cli):
    code, out, err = cli("verify")
    assert (code, out) == (1, "")
    assert err == f"error: verify needs a target: {', '.join(_TARGETS)}\n"


# --------------------------------------------------------------------------
# option bounds
# --------------------------------------------------------------------------

_EVAL = ("eval", "--catalog", "quadric", "--beta", "-0.6,-0.35",
         "--x", "1,0.5,1")


@pytest.mark.parametrize("args", [
    ("verify", "group", "--catalog", "square", "--samples", "0"),
    ("verify", "group", "--catalog", "square", "--samples", "-1"),
    ("verify", "group", "--catalog", "square", "--samples", "1"),
    ("verify", "pfaff", "--samples", "0"),
    (*_EVAL, "--tol", "0"),
    (*_EVAL, "--tol", "-1"),
    (*_EVAL, "--tol", "nan"),
    (*_EVAL, "--tol", "inf"),
    (*_EVAL, "--tol", "1e-320"),
    ("verify", "quadric", "--tol", "0"),
], ids=" ".join)
def test_out_of_range_options_are_usage_errors(args, cli):
    code, out, err = cli(*args)
    assert (code, out) == (1, "")
    option = "--samples" if "--samples" in args else "--tol"
    assert err.startswith(f"error: argument {option}: ")


def test_non_numbers_keep_the_argparse_wording(cli):
    code, _, err = cli(*_EVAL, "--tol", "abc")
    assert code == 1
    assert err.startswith("error: argument --tol: invalid float value: 'abc'")
    code, _, err = cli("verify", "pfaff", "--samples", "x")
    assert code == 1
    assert err.startswith("error: argument --samples: invalid int value: 'x'")


@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_bad_env_tolerance_is_a_usage_error(value, cli, monkeypatch):
    monkeypatch.setenv("GKZ_TOL", value)
    code, out, err = cli(*_EVAL)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: bad GKZ_TOL value '{value}'")


def test_smallest_samples_still_run(cli):
    code, out, _ = cli("verify", "pfaff", "--samples", "1")
    assert code == 0 and '"verdict":"pass"' in out
    code, out, _ = cli("verify", "group", "--catalog", "square",
                       "--samples", "2")
    assert code == 0 and '"order":8' in out


# --------------------------------------------------------------------------
# a constant fitted at one sample certifies nothing
# --------------------------------------------------------------------------


def test_one_sample_fit_is_refused():
    # two elements of this group fail on a wider grid; a one-point grid
    # fitted kappa to its only sample and reported them as passing
    ent = catalog("lauricella_fc(1)")
    one = SampleGrid.for_entry(ent, count=1)
    two = SampleGrid.for_entry(ent, count=2)
    verdicts = []
    for sym in find_symmetries(ent.config):
        tr = induced_transformation(sym)
        try:
            verdicts.append(verify_linear_transformation(ent.config, tr, two).verdict)
        except OutOfDomain:
            continue
        with pytest.raises(FitUnstable, match="2 samples"):
            verify_linear_transformation(ent.config, tr, one)
    assert sorted(verdicts) == ["fail", "fail", "pass", "pass"]
