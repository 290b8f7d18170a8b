"""Command-line front end.

Deterministic by construction: reports serialize through a canonical
JSON writer (sorted keys, floats as %.15e, complex as [re, im]), so
identical invocations produce byte-identical output.

Exit codes: 0 success, 1 usage/parse/io error, 2 verification failure
or invalid configuration, 3 numeric/evaluation error.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .configs import (
    CATALOG_NAMES,
    PointConfiguration,
    catalog,
    chart_of,
    entry_of,
    validate_configuration,
)
from .errors import (
    ConfigMismatch,
    DegenerateCone,
    DimensionMismatch,
    FitUnstable,
    GkzError,
    IoError,
    LatticeNotSpanned,
    LeavesConfiguration,
    NoSuchBlockStructure,
    NotConverged,
    NotFullRank,
    NotNegativeInteger,
    NoXi,
    OutOfDomain,
    ParseError,
    PoleInC,
    PoleInGamma,
    SingularOnCycle,
    TooLarge,
    UnknownName,
    UnsupportedParameters,
    UsageError,
)
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

_USAGE_ERRORS = (UsageError, ParseError, IoError, UnknownName)
_VALIDATION_ERRORS = (
    NotFullRank,
    LatticeNotSpanned,
    NoXi,
    NoSuchBlockStructure,
    ConfigMismatch,
    DimensionMismatch,
    NotNegativeInteger,
    LeavesConfiguration,
    DegenerateCone,
)
_NUMERIC_ERRORS = (
    NotConverged,
    SingularOnCycle,
    PoleInC,
    PoleInGamma,
    OutOfDomain,
    UnsupportedParameters,
    FitUnstable,
    TooLarge,
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


def _write_output(text: str, out_path):
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


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


def _parse_cycle(text: str):
    axes = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if tok in ("pos", "positive", "positive_axis"):
            axes.append(positive_axis())
        elif tok.startswith("pos:"):
            try:
                axes.append(positive_axis(float(tok[4:])))
            except ValueError as exc:
                raise UsageError(f"bad ray phase in {tok!r}") from exc
        elif tok in ("neg", "negative", "negative_axis"):
            axes.append(negative_axis())
        elif tok in ("real", "real_line"):
            axes.append(real_line())
        elif tok in ("interval", "unit_interval"):
            axes.append(unit_interval())
        elif tok in ("circle", "unit_circle"):
            axes.append(unit_circle())
        else:
            raise UsageError(f"unknown cycle token {tok!r}")
    return tuple(axes)


def _source_of(args, default=None) -> str:
    src = getattr(args, "source", None)
    cat = getattr(args, "catalog", None)
    if src and cat:
        raise UsageError("give either a positional source or --catalog")
    source = src or cat or default
    if source is None:
        raise UsageError("a configuration source is required")
    return source


def _cycle_of(text, r: int):
    """The given cycle, else one positive axis per chart variable."""
    if text:
        return _parse_cycle(text)
    return tuple(positive_axis() for _ in range(r))


def _settings(args) -> QuadratureSettings:
    tol = getattr(args, "tol", None)
    if tol is None:
        env = os.environ.get("GKZ_TOL")
        if env is not None:
            try:
                tol = float(env)
            except ValueError as exc:
                raise UsageError(f"bad GKZ_TOL value {env!r}") from exc
        else:
            tol = 1e-10
    return QuadratureSettings(rel_tol=tol, abs_tol=min(1e-14, tol * 1e-4))


def build_parser() -> _Parser:
    parser = _Parser(prog="gkz", description="toric hypergeometric toolkit")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def output(p, out_help=None):
        p.add_argument("--out", help=out_help)
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("source", nargs="?", help="file path or catalog name")
        p.add_argument("--catalog", help="catalog name")
        return output(p, "write output to this path")

    add("catalog", "list catalog entries or emit one configuration")
    p = add("validate", "validate a configuration")
    p.add_argument(
        "--degree-bound", type=int, default=None,
        help="also scan semigroup gaps up to this degree",
    )
    add("xi", "print the grading covector")
    p = add("standard-form", "block standard form of a configuration")
    p.add_argument("--m", type=int, default=1, help="number of blocks")
    add("symmetries", "enumerate the symmetry group")
    add("transforms", "induced parameter/coefficient transformations")
    p = add("eval", "evaluate the dehomogenized integral")
    p.add_argument("--beta", required=True, help="comma-separated parameters")
    p.add_argument("--x", required=True, help="comma-separated coefficients")
    p.add_argument("--cycle", default=None, help="comma-separated axis kinds")
    p.add_argument("--u", default=None, help="derivative multi-order")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--tol", type=float, default=None)

    v = sub.add_parser("verify", help="identity checks")
    vsub = v.add_subparsers(dest="target", metavar="target")
    vp = vsub.add_parser("pfaff", help="series reflection identity")
    vp.add_argument("--samples", type=int, default=10)
    output(vp)
    vq = vsub.add_parser("quadric", help="half-turn phase identities")
    vq.add_argument("--tol", type=float, default=None)
    output(vq)
    vd = vsub.add_parser("pde", help="annihilation by the toric system")
    vd.add_argument("source", nargs="?")
    vd.add_argument("--catalog")
    vd.add_argument("--beta", default=None)
    vd.add_argument("--x", default=None)
    vd.add_argument("--cycle", default=None)
    vd.add_argument("--tol", type=float, default=None)
    output(vd)
    vb = vsub.add_parser("binomial", help="finite binomial-sum identity")
    vb.add_argument("source", nargs="?")
    vb.add_argument("--catalog")
    vb.add_argument("--n", type=int, default=2, help="order of the pole slot")
    vb.add_argument(
        "--shift",
        type=float,
        default=None,
        help="shift t (default 1 for the quadric, 0.4 for the square)",
    )
    vb.add_argument("--tol", type=float, default=None)
    output(vb)
    vg = vsub.add_parser("group", help="every group element as an identity")
    vg.add_argument("source", nargs="?")
    vg.add_argument("--catalog")
    vg.add_argument("--samples", type=int, default=6)
    vg.add_argument(
        "--evaluator", choices=("classical", "integral"), default=None
    )
    vg.add_argument("--tol", type=float, default=None)
    output(vg)

    output(sub.add_parser("f4-report", help="non-existence certificate"))
    return parser


# ==========================================================================
# subcommand implementations
# ==========================================================================

def _cmd_catalog(args):
    src = _source_of(args, default="")
    if not src:
        return {"entries": list(CATALOG_NAMES)}, 0
    return config_to_json(load_config(src)), 0


def _cmd_validate(args):
    config = load_config(_source_of(args))
    doc = {
        "valid": True,
        "name": config.name or "",
        "d": config.d,
        "n": config.n,
        "xi": list(config.xi),
    }
    if args.degree_bound is not None:
        from .configs import saturation_gaps

        gaps = saturation_gaps(config, args.degree_bound)
        doc["saturation"] = {
            "degree_bound": args.degree_bound,
            "gaps": [list(g) for g in gaps],
        }
    return doc, 0


def _cmd_xi(args):
    config = load_config(_source_of(args))
    return list(config.xi), 0


def _cmd_standard_form(args):
    config = load_config(_source_of(args))
    sf = chart_of(config, args.m)
    return {
        "name": config.name or "",
        "m": sf.m,
        "r": sf.r,
        "u_matrix": [list(r) for r in sf.u_matrix],
        "transformed": [list(r) for r in sf.transformed],
        "blocks": [[j + 1 for j in blk] for blk in sf.blocks],
    }, 0


def _cmd_symmetries(args):
    config = load_config(_source_of(args))
    group = find_symmetries(config)
    return group.to_json(), 0


def _cmd_transforms(args):
    config = load_config(_source_of(args))
    group = find_symmetries(config)
    out = [induced_transformation(sym).to_json() for sym in group]
    return {"name": config.name or "", "count": len(out), "transformations": out}, 0


def _cmd_eval(args):
    config = load_config(_source_of(args))
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
    res = derivative_integral(sf, beta, x, u, cycle, _settings(args))
    return res.to_json(), 0


class _AggregateReport:
    """Minimal report shim so emit_report can render grouped results."""

    def __init__(self, doc: dict, passed: bool, max_residual: float):
        self._doc = doc
        self.passed = passed
        self.max_residual = max_residual

    def to_json(self) -> dict:
        return self._doc


def _report_result(report):
    return report, 0 if report.passed else 2


def _cmd_verify(args):
    if args.target == "pfaff":
        return _report_result(verify_pfaff(samples=args.samples))
    if args.target == "quadric":
        return _report_result(
            verify_quadric_multivaluedness(settings=_settings(args))
        )
    if args.target == "pde":
        if (args.beta is None) != (args.x is None):
            raise UsageError("give both --beta and --x, or neither")
        config = load_config(_source_of(args, "gauss"))
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
        report = verify_pde(config, beta, x, cycle, settings=_settings(args))
        return _report_result(report)
    if args.target == "binomial":
        return _report_result(_binomial_report(args))
    if args.target == "group":
        return _group_report(args)
    raise UsageError("verify needs a target: pfaff, quadric, pde, binomial, group")


def _binomial_report(args):
    config = load_config(_source_of(args, "quadric"))
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
        identity, grid, settings=_settings(args), cycle=cycle
    )


def _group_report(args):
    config = load_config(_source_of(args, "square"))
    group = find_symmetries(config)
    ent = entry_of(config)
    if ent is None:
        raise UnknownName("configuration is not in the catalog")
    evaluator = args.evaluator or ent.group_evaluator
    grid = SampleGrid.for_entry(ent, count=args.samples)
    reports = []
    all_pass = True
    for sym in group:
        tr = induced_transformation(sym)
        rep = verify_linear_transformation(
            config, tr, grid, evaluator=evaluator, settings=_settings(args)
        )
        reports.append(rep.to_json())
        all_pass = all_pass and rep.passed
    worst = max((r["max_residual"] for r in reports), default=0.0)
    doc = {
        "description": f"group identities for {config.name or 'configuration'}",
        "order": len(reports),
        "evaluator": evaluator,
        "verdict": "pass" if all_pass else "fail",
        "max_residual": worst,
        "elements": reports,
    }
    return _AggregateReport(doc, all_pass, worst), 0 if all_pass else 2


def _cmd_f4_report(args):
    report = f4_nonexistence_report()
    return report, 0 if report.passed else 2


# ==========================================================================
# dispatch
# ==========================================================================


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError(parser.format_usage())
    handlers = {
        "catalog": _cmd_catalog,
        "validate": _cmd_validate,
        "xi": _cmd_xi,
        "standard-form": _cmd_standard_form,
        "symmetries": _cmd_symmetries,
        "transforms": _cmd_transforms,
        "eval": _cmd_eval,
        "verify": _cmd_verify,
        "f4-report": _cmd_f4_report,
    }
    result, code = handlers[args.command](args)
    fmt = getattr(args, "format", "json")
    if hasattr(result, "to_json") and not isinstance(result, dict):
        text = emit_report(result, fmt)
    else:
        text = canonical_json(result) + "\n"
    _write_output(text, getattr(args, "out", None))
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(list(argv))
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GkzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
