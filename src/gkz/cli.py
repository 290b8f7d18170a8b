"""Command-line front end.

Deterministic by construction: reports serialize through a canonical
JSON writer (sorted keys, floats as %.15e, complex as [re, im]), so
identical invocations produce byte-identical output.

Each subcommand and verify target is one row of ``_COMMANDS``.  Exit
codes: 0 success, 2 a failed verdict, and for an error its class's
``exit_code`` (errors.py): 1 usage/parse/io, 2 invalid configuration,
3 numeric/evaluation.
"""

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Optional

from .configs import (
    CATALOG_NAMES,
    PointConfiguration,
    catalog,
    chart_of,
    entry_of,
    saturation_gaps,
    validate_configuration,
)
from .errors import GkzError, IoError, ParseError, UnknownName, UsageError
from .evaluate import (
    QuadratureSettings,
    derivative_integral,
    negative_axis,
    positive_axis,
    real_line,
    unit_circle,
    unit_interval,
)
from .symmetry import find_symmetries
from .transforms import (
    binomial_expansion_identity,
    elementary_pullback,
    induced_transformation,
)
from .verify import (
    SampleGrid,
    f4_nonexistence_report,
    verify_binomial_identity,
    verify_linear_transformation,
    verify_pde,
    verify_pfaff,
    verify_quadric_multivaluedness,
)


# ==========================================================================
# canonical JSON
# ==========================================================================


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, %.15e floats, complex as [re, im]."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_str(obj)
    # containers before Fraction, whose isinstance check goes through ABCMeta
    if isinstance(obj, (list, tuple)):
        # ints, the bulk of search reports, skip the recursion (bools do not)
        return "[" + ",".join(
            [str(v) if type(v) is int else canonical_json(v) for v in obj]
        ) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key {key!r}")
            # json.dumps(key) without its per-call wrapper: same bytes
            key_json = encode_basestring_ascii(key)
            items.append(key_json + ":" + canonical_json(obj[key]))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, Fraction):
        return _float_str(float(obj))
    if isinstance(obj, complex):
        return canonical_json([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if hasattr(obj, "to_json"):
        return canonical_json(obj.to_json())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_str(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in report")
    return "%.15e" % v


def emit_report(report, format: str = "json") -> str:
    """Render a report for output; json is canonical, text is one line."""
    if format == "json":
        return canonical_json(report.to_json()) + "\n"
    if format == "text":
        word = "PASS" if report.passed else "FAIL"
        return f"{word} max_residual={report.max_residual:.6e}\n"
    raise UsageError(f"unknown format {format!r}")


# ==========================================================================
# configuration I/O
# ==========================================================================


def load_config(source: str) -> PointConfiguration:
    """Resolve a source: an existing file path first, then a catalog name."""
    path = Path(source)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot read {source}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(doc, dict) or "matrix" not in doc:
            raise ParseError(f"{source}: configuration JSON needs a 'matrix'")
        matrix = doc["matrix"]
        if not (
            isinstance(matrix, list)
            and matrix
            and all(
                isinstance(row, list)
                and all(isinstance(v, int) for v in row)
                for row in matrix
            )
        ):
            raise ParseError(f"{source}: 'matrix' must be integer rows")
        name = doc.get("name", "")
        if not isinstance(name, str):
            raise ParseError(f"{source}: 'name' must be a string")
        return validate_configuration(matrix, name=name)
    return catalog(source).config


def config_to_json(config: PointConfiguration) -> dict:
    doc = {
        "name": config.name or "",
        "matrix": [list(row) for row in config.matrix],
        "params": [],
    }
    ent = entry_of(config)
    if ent is not None and ent.classical is not None:
        model = ent.classical
        for i, row in enumerate(model.beta_matrix):
            expr = _affine_expr(model.param_names, row)
            doc["params"].append(f"beta{i + 1} = {expr}")
    return doc


def _affine_expr(names, row) -> str:
    parts = []
    const = row[0]
    for name, coef in zip(names, row[1:]):
        if coef == 0:
            continue
        if coef == 1:
            parts.append(f"+ {name}")
        elif coef == -1:
            parts.append(f"- {name}")
        else:
            parts.append(f"+ {coef} {name}")
    if const != 0:
        parts.append(f"+ {const}" if const > 0 else f"- {-const}")
    if not parts:
        return "0"
    out = " ".join(parts)
    if out.startswith("+ "):
        out = out[2:]
    return out


# ==========================================================================
# argument plumbing
# ==========================================================================


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # the stock matcher knows single numbers only, so "-0.6,-0.35"
        # would read as an option; no gkz option starts with "-<digit>" or
        # "-.<digit>".  The base __init__ sets it per instance.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _at_least(kind, low):
    """An argparse type: kind(text), refused outside [low, inf)."""

    def convert(text):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"{text} is not in [{low}, inf)")
        return value

    # argparse reports a ValueError of kind() as "invalid <name> value"
    convert.__name__ = kind.__name__
    return convert


# the floor keeps the derived abs_tol = tol * 1e-4 clear of underflow to 0
_tolerance = _at_least(float, 1e-300)


def _parse_numbers(text: str, what: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            z = complex(tok)
        except ValueError as exc:
            raise UsageError(f"cannot parse {what} entry {tok!r}") from exc
        out.append(z.real if z.imag == 0 else z)
    return tuple(out)


_AXES = {
    **dict.fromkeys(("pos", "positive", "positive_axis"), positive_axis),
    **dict.fromkeys(("neg", "negative", "negative_axis"), negative_axis),
    **dict.fromkeys(("real", "real_line"), real_line),
    **dict.fromkeys(("interval", "unit_interval"), unit_interval),
    **dict.fromkeys(("circle", "unit_circle"), unit_circle),
}


def _parse_cycle(text: str):
    axes = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if tok.startswith("pos:"):
            try:
                axes.append(positive_axis(float(tok[4:])))
            except ValueError as exc:
                raise UsageError(f"bad ray phase in {tok!r}") from exc
        elif tok in _AXES:
            axes.append(_AXES[tok]())
        else:
            raise UsageError(f"unknown cycle token {tok!r}")
    return tuple(axes)


def _cycle_of(text, r: int):
    """The given cycle, else one positive axis per chart variable."""
    if text:
        return _parse_cycle(text)
    return tuple(positive_axis() for _ in range(r))


def _config(source: str) -> PointConfiguration:
    if not source:
        raise UsageError("a configuration source is required")
    return load_config(source)


def _settings(tol) -> QuadratureSettings:
    """Quadrature tolerances from --tol, else GKZ_TOL, else 1e-10."""
    if tol is None:
        env = os.environ.get("GKZ_TOL")
        try:
            tol = 1e-10 if env is None else _tolerance(env)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageError(f"bad GKZ_TOL value {env!r}") from exc
    return QuadratureSettings(rel_tol=tol, abs_tol=min(1e-14, tol * 1e-4))


# ==========================================================================
# subcommand handlers: each returns a plain document or a report
# ==========================================================================


def _catalog(args):
    if not args.source:
        return {"entries": list(CATALOG_NAMES)}
    return config_to_json(load_config(args.source))


def _validate(args):
    config = _config(args.source)
    doc = {
        "valid": True,
        "name": config.name or "",
        "d": config.d,
        "n": config.n,
        "xi": list(config.xi),
    }
    if args.degree_bound is not None:
        gaps = saturation_gaps(config, args.degree_bound)
        doc["saturation"] = {
            "degree_bound": args.degree_bound,
            "gaps": [list(g) for g in gaps],
        }
    return doc


def _standard_form(args):
    config = _config(args.source)
    sf = chart_of(config, args.m)
    return {
        "name": config.name or "",
        "m": sf.m,
        "r": sf.r,
        "u_matrix": [list(r) for r in sf.u_matrix],
        "transformed": [list(r) for r in sf.transformed],
        "blocks": [[j + 1 for j in blk] for blk in sf.blocks],
    }


def _transforms(args):
    config = _config(args.source)
    out = [induced_transformation(s).to_json() for s in find_symmetries(config)]
    return {"name": config.name or "", "count": len(out), "transformations": out}


def _eval(args):
    config = _config(args.source)
    beta = _parse_numbers(args.beta, "beta")
    x = _parse_numbers(args.x, "x")
    sf = chart_of(config, args.m)
    cycle = _cycle_of(args.cycle, sf.r)
    if args.u:
        try:
            u = tuple(int(tok.strip()) for tok in args.u.split(","))
        except ValueError as exc:
            raise UsageError("--u must be comma-separated integers") from exc
    else:
        u = (0,) * config.n
    res = derivative_integral(sf, beta, x, u, cycle, _settings(args.tol))
    return res.to_json()


def _verify_pde(args):
    if (args.beta is None) != (args.x is None):
        raise UsageError("give both --beta and --x, or neither")
    config = _config(args.source)
    if args.beta is None:
        ent = entry_of(config)
        sample = ent.pde_sample if ent else None
        if sample is None:
            raise UsageError(
                "--beta and --x are required for configurations "
                "without built-in samples"
            )
        beta, x = sample.beta, sample.x
        cycle = _parse_cycle(args.cycle or sample.cycle)
    else:
        beta = _parse_numbers(args.beta, "beta")
        x = _parse_numbers(args.x, "x")
        # verify_pde works in the one-block chart: r = d - 1
        cycle = _cycle_of(args.cycle, config.d - 1)
    return verify_pde(config, beta, x, cycle, settings=_settings(args.tol))


def _verify_binomial(args):
    config = _config(args.source)
    ent = entry_of(config)
    sample = ent.binomial_sample if ent else None
    if sample is None:
        raise UsageError(
            f"{config.name or 'the configuration'} has no built-in "
            "binomial sample"
        )
    sf = ent.standard_form(1)
    t = sample.shift if args.shift is None else args.shift
    beta = sample.beta_for(args.n)
    cycle = _parse_cycle(sample.cycle) if sample.cycle else None
    auto = elementary_pullback(sf, sample.variable, t)
    identity = binomial_expansion_identity(sf, auto, beta, args.n)
    grid = SampleGrid(points=tuple((beta, x) for x in sample.xs))
    return verify_binomial_identity(
        identity, grid, settings=_settings(args.tol), cycle=cycle
    )


@dataclass
class _GroupReport:
    """Every element report of one group, rendered like one report."""

    doc: dict
    passed: bool
    max_residual: float

    def to_json(self) -> dict:
        return self.doc


def _verify_group(args):
    config = _config(args.source)
    group = find_symmetries(config)
    ent = entry_of(config)
    if ent is None:
        raise UnknownName("configuration is not in the catalog")
    evaluator = args.evaluator or ent.group_evaluator
    grid = SampleGrid.for_entry(ent, count=args.samples)
    settings = _settings(args.tol)
    reports = [
        verify_linear_transformation(
            config, induced_transformation(sym), grid,
            evaluator=evaluator, settings=settings,
        )
        for sym in group
    ]
    all_pass = all(rep.passed for rep in reports)
    worst = max((rep.max_residual for rep in reports), default=0.0)
    doc = {
        "description": f"group identities for {config.name or 'configuration'}",
        "order": len(reports),
        "evaluator": evaluator,
        "verdict": "pass" if all_pass else "fail",
        "max_residual": worst,
        "elements": [rep.to_json() for rep in reports],
    }
    return _GroupReport(doc, all_pass, worst)


# ==========================================================================
# the command table and dispatch
# ==========================================================================


@dataclass(frozen=True)
class _Command:
    """A subcommand: a leaf with a handler, or a group of targets.

    A leaf with a source takes a positional source or --catalog, and falls
    back to source ("" for none); every leaf takes --out and --format.
    """

    name: str
    help: str
    run: Optional[Callable] = None
    source: Optional[str] = None
    options: tuple = ()
    targets: tuple = ()


def _opt(*flags, **kwargs):
    return flags, kwargs


_TOL = _opt("--tol", type=_tolerance)

_COMMANDS = (
    _Command("catalog", "list catalog entries or emit one configuration", _catalog,
             source=""),
    _Command("validate", "validate a configuration", _validate, source="", options=(
        _opt("--degree-bound", type=int,
             help="also scan semigroup gaps up to this degree"),
    )),
    _Command("xi", "print the grading covector",
             lambda args: list(_config(args.source).xi), source=""),
    _Command("standard-form", "block standard form of a configuration",
             _standard_form, source="", options=(
                 _opt("--m", type=int, default=1, help="number of blocks"),
             )),
    _Command("symmetries", "enumerate the symmetry group",
             lambda args: find_symmetries(_config(args.source)).to_json(),
             source=""),
    _Command("transforms", "induced parameter/coefficient transformations",
             _transforms, source=""),
    _Command("eval", "evaluate the dehomogenized integral", _eval, source="", options=(
        _opt("--beta", required=True, help="comma-separated parameters"),
        _opt("--x", required=True, help="comma-separated coefficients"),
        _opt("--cycle", help="comma-separated axis kinds"),
        _opt("--u", help="derivative multi-order"),
        _opt("--m", type=int, default=1),
        _TOL,
    )),
    _Command("verify", "identity checks", targets=(
        _Command("pfaff", "series reflection identity",
                 lambda args: verify_pfaff(samples=args.samples), options=(
                     _opt("--samples", type=_at_least(int, 1), default=10),
                 )),
        _Command("quadric", "half-turn phase identities",
                 lambda args: verify_quadric_multivaluedness(_settings(args.tol)),
                 options=(_TOL,)),
        _Command("pde", "annihilation by the toric system", _verify_pde, source="gauss",
                 options=(_opt("--beta"), _opt("--x"), _opt("--cycle"), _TOL)),
        _Command("binomial", "finite binomial-sum identity", _verify_binomial,
                 source="quadric", options=(
                     _opt("--n", type=int, default=2, help="order of the pole slot"),
                     _opt("--shift", type=float, help="shift t (default 1 for the "
                          "quadric, 0.4 for the square)"),
                     _TOL,
                 )),
        _Command("group", "every group element as an identity", _verify_group,
                 source="square", options=(
                     _opt("--samples", type=_at_least(int, 2), default=6),
                     _opt("--evaluator", choices=("classical", "integral")),
                     _TOL,
                 )),
    )),
    _Command("f4-report", "non-existence certificate",
             lambda args: f4_nonexistence_report()),
)


def _add_commands(parser, commands, metavar: str):
    sub = parser.add_subparsers(metavar=metavar)
    for cmd in commands:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.set_defaults(command=cmd)
        if cmd.targets:
            _add_commands(p, cmd.targets, "target")
            continue
        if cmd.source is not None:
            p.add_argument("source", nargs="?", help="file path or catalog name")
            p.add_argument("--catalog", help="catalog name")
        p.add_argument("--out", help="write output to this path")
        p.add_argument("--format", choices=("json", "text"), default="json")
        for flags, kwargs in cmd.options:
            p.add_argument(*flags, **kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="gkz", description="toric hypergeometric toolkit")
    parser.set_defaults(command=None)
    _add_commands(parser, _COMMANDS, "subcommand")
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cmd = args.command
    if cmd is None:
        raise UsageError(parser.format_usage())
    if cmd.targets:
        names = ", ".join(t.name for t in cmd.targets)
        raise UsageError(f"{cmd.name} needs a target: {names}")
    if cmd.source is not None:
        if args.source and args.catalog:
            raise UsageError("give either a positional source or --catalog")
        args.source = args.source or args.catalog or cmd.source
    result = cmd.run(args)
    if isinstance(result, (dict, list)):
        text, code = canonical_json(result) + "\n", 0
    else:
        text, code = emit_report(result, args.format), 0 if result.passed else 2
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except GkzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
