"""Command-line front end.

Subcommands split into checks and transforms.  Checks (validate,
monotone, duality, simulate, boundary) emit an envelope
{"command", "ok", "report"} and exit 1 when the check fails.  Transforms
(dual, discretize, evolve, dualgen) emit the produced artifact as a bare
document so outputs can feed straight back into --in.  Exit codes:
0 success, else the ``exit_code`` of the raised error class: 1 a check
failed, 2 unreadable or malformed input, 3 internal failure (quadrature
breakdown, unresolved tail mass, bugs).

Input sniffing: a JSON document with a "rates" field is a rate matrix;
anything else is a model description.  Commands that accept both pick
the matching routine.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from ._expr import number
from .errors import InputFormatError, MonodualError, NotMonotone
from .generator import (
    Lattice,
    LevyModel,
    check_levy_monotone,
    classify_boundary,
    discretize,
    model_from_dict,
    validate_model,
)
from .dualgen import dual_levy, tabulate_dual
from .qmatrix import (
    RateMatrix,
    check_monotone,
    dual_qmatrix,
    ratematrix_from_dict,
    ratematrix_to_json,
    transition_matrix,
    validate_qmatrix,
    verify_duality,
)
from .simulate import (
    mc_duality_check,
    mc_growth_bound,
    mc_survival,
    sample_path,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INTERNAL = 3

def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise InputFormatError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(doc: dict, out: Optional[str]) -> None:
    _emit(json.dumps(doc, indent=2), out)


def _envelope(args, ok: bool, report) -> int:
    """Emit the {"command", "ok", "report"} envelope of a check; exit 0 if
    it passed, else 1."""
    _emit_json({"command": args.command, "ok": ok, "report": report}, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _tol(args) -> dict:
    """The --tol override as keyword arguments."""
    return {} if args.tol is None else {"tol": args.tol}


def _is_ratematrix_doc(doc: dict) -> bool:
    return isinstance(doc, dict) and "rates" in doc


def _parse_window(text: Optional[str]):
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        raise InputFormatError(f"window must look like LO:HI, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputFormatError(f"window bounds must be integers: {text!r}") from exc


def _model_grid(args) -> np.ndarray:
    window = _parse_window(args.window)
    if window is not None and args.h is not None:
        lo, hi = window
        return args.h * np.arange(lo, hi + 1)
    return np.linspace(-5.0, 5.0, 41)


def _lattice_from(args, doc: dict) -> Lattice:
    window = _parse_window(args.window)
    if args.h is None or window is None:
        raise InputFormatError("this command needs --h and --window LO:HI")
    boundary = doc.get("boundary", "absorb")
    return Lattice(h=args.h, lo=window[0], hi=window[1], boundary=boundary)


def _cmd_validate(args) -> int:
    doc = _read_json(args.infile)
    if _is_ratematrix_doc(doc):
        return _envelope(args, True, validate_qmatrix(ratematrix_from_dict(doc)))
    report = validate_model(model_from_dict(doc), _model_grid(args))
    return _envelope(args, report.ok, report.to_dict())


def _cmd_monotone(args) -> int:
    doc = _read_json(args.infile)
    if _is_ratematrix_doc(doc):
        report = check_monotone(ratematrix_from_dict(doc), **_tol(args))
    else:
        report = check_levy_monotone(model_from_dict(doc), _model_grid(args), **_tol(args))
    return _envelope(args, report.ok, report.to_dict())


def _cmd_dual(args) -> int:
    rm = ratematrix_from_dict(_read_json(args.infile))
    dual = dual_qmatrix(rm, **_tol(args))
    _emit(ratematrix_to_json(dual), args.out)
    return EXIT_OK


def _cmd_discretize(args) -> int:
    doc = _read_json(args.infile)
    if _is_ratematrix_doc(doc):
        raise InputFormatError("discretize expects a model description")
    model = model_from_dict(doc)
    lat = _lattice_from(args, doc)
    rm = discretize(model, lat)
    _emit(ratematrix_to_json(rm), args.out)
    return EXIT_OK


def _cmd_evolve(args) -> int:
    rm = ratematrix_from_dict(_read_json(args.infile))
    if args.t is None:
        raise InputFormatError("evolve needs --t")
    tm = transition_matrix(rm, args.t, **_tol(args))
    _emit_json(tm.to_dict(), args.out)
    return EXIT_OK


def _cmd_duality(args) -> int:
    rm = ratematrix_from_dict(_read_json(args.infile))
    if args.t is None:
        raise InputFormatError("duality needs --t")
    kwargs = _tol(args)
    if args.margin is not None:
        kwargs["margin"] = args.margin
    report = verify_duality(rm, args.t, **kwargs)
    return _envelope(args, report.ok, report.to_dict())


def _cmd_boundary(args) -> int:
    model = model_from_dict(_read_json(args.infile))
    return _envelope(args, True, classify_boundary(model).to_dict())


def _cmd_dualgen(args) -> int:
    doc = _read_json(args.infile)
    model = model_from_dict(doc)
    coeffs = dual_levy(model)
    window = _parse_window(args.window)
    if window is not None and args.h is not None:
        xs = args.h * np.arange(window[0], window[1] + 1)
        ys = args.h * np.arange(1, int(math.ceil(4.0 / args.h)) + 1)
    else:
        xs = np.linspace(-4.0, 4.0, 33)
        ys = None
    tab = tabulate_dual(coeffs, xs, ys)
    if args.out is not None and args.out.endswith(".csv"):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["x", "G", "drift", "correction"])
        for i, x in enumerate(tab["x"]):
            writer.writerow([x, tab["G"][i], tab["drift"][i], tab["correction"][i]])
        _emit(buf.getvalue(), args.out)
    else:
        _emit_json(tab, args.out)
    return EXIT_OK


def _field(doc: dict, key: str, kind=float, where: str = "simulation input"):
    if key not in doc:
        raise InputFormatError(f"{where} needs {key!r}")
    return number(doc[key], key, kind)


def _sim_lattice(doc: dict) -> Lattice:
    lat_doc = doc.get("lattice")
    if not isinstance(lat_doc, dict):
        raise InputFormatError("simulating a model needs a 'lattice' object")
    return Lattice(
        h=_field(lat_doc, "h", float, "'lattice'"),
        lo=_field(lat_doc, "lo", int, "'lattice'"),
        hi=_field(lat_doc, "hi", int, "'lattice'"),
        boundary=lat_doc.get("boundary", "absorb"),
    )


def _sim_chain(doc: dict, args) -> RateMatrix:
    if "chain" in doc:
        return ratematrix_from_dict(doc["chain"])
    if "model" in doc:
        return discretize(model_from_dict(doc["model"]), _sim_lattice(doc))
    raise InputFormatError("simulation input needs 'chain' or 'model'")


def _cmd_simulate(args) -> int:
    doc = _read_json(args.infile)
    if not isinstance(doc, dict) or "op" not in doc:
        raise InputFormatError("simulation input needs an 'op' field")
    op = doc["op"]
    t = args.t if args.t is not None else doc.get("t")
    reps = number(args.reps if args.reps is not None else doc.get("reps", 10000),
                  "reps", int)
    seed = number(args.seed if args.seed is not None else doc.get("seed", 0),
                  "seed", int)
    threads = number(
        args.threads if args.threads is not None else doc.get("threads", 1),
        "threads", int,
    )
    if op in ("survival", "duality", "path") and t is None:
        raise InputFormatError(f"op {op!r} needs a horizon --t")
    if t is not None:
        t = number(t, "t")

    if op == "survival":
        rm = _sim_chain(doc, args)
        est = mc_survival(
            rm, _field(doc, "x0", int), _field(doc, "y", int), t,
            reps, seed, threads=threads,
        )
        return _envelope(args, True, est.to_dict())
    if op == "duality":
        rm = _sim_chain(doc, args)
        pairs = doc.get("pairs")
        if not pairs:
            raise InputFormatError("duality simulation needs 'pairs'")
        try:
            pairs = [(number(x, "pairs", int), number(y, "pairs", int)) for x, y in pairs]
        except (TypeError, ValueError) as exc:
            raise InputFormatError(
                f"'pairs' must be a list of [x, y] states, got {pairs!r}"
            ) from exc
        report = mc_duality_check(rm, pairs, t, reps, seed, threads=threads)
        return _envelope(args, report.ok, report.to_dict())
    if op == "growth":
        if "model" not in doc:
            raise InputFormatError("growth simulation operates on a model")
        model = model_from_dict(doc["model"])
        lat = _sim_lattice(doc)
        c = doc.get("c", model.growth_c)
        if c is None:
            raise InputFormatError("growth simulation needs 'c' or model growth_c")
        if t is None:
            raise InputFormatError("growth simulation needs a horizon --t")
        report = mc_growth_bound(
            model, lat, _field(doc, "x0"), t, number(c, "c"),
            reps, seed, threads=threads,
        )
        return _envelope(args, report.ok, report.to_dict())
    if op == "path":
        rm = _sim_chain(doc, args)
        path = sample_path(rm, _field(doc, "x0", int), t, seed)
        return _envelope(args, True, path.to_dict())
    raise InputFormatError(
        f"unknown op {op!r}; expected survival, duality, growth, path"
    )


_COMMANDS = {
    "validate": _cmd_validate,
    "monotone": _cmd_monotone,
    "dual": _cmd_dual,
    "discretize": _cmd_discretize,
    "evolve": _cmd_evolve,
    "duality": _cmd_duality,
    "simulate": _cmd_simulate,
    "boundary": _cmd_boundary,
    "dualgen": _cmd_dualgen,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="monodual",
        description="Monotonicity and duality toolkit for one-dimensional "
        "Markov jump processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "validate": "check a rate matrix or model for structural problems",
        "monotone": "check stochastic monotonicity of a chain or kernel tails of a model",
        "dual": "construct the dual rate matrix of a monotone chain",
        "discretize": "project a model onto a lattice window",
        "evolve": "compute the transition matrix at a horizon",
        "duality": "verify the pathwise duality identity through matrix exponentials",
        "simulate": "Monte Carlo: survival, duality, growth bound, or one path",
        "boundary": "classify the origin of a half-line model",
        "dualgen": "tabulate the dual generator coefficients of a model",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", required=True, help="input JSON file")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.add_argument("--t", type=float, default=None, help="time horizon")
        p.add_argument("--h", type=float, default=None, help="lattice mesh width")
        p.add_argument("--window", default=None, help="lattice window LO:HI")
        p.add_argument("--reps", type=int, default=None, help="Monte Carlo replicates")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--margin", type=int, default=None,
                       help="window margin excluded from the duality check")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads for Monte Carlo")
    return parser


def run(args) -> int:
    command = args.command
    try:
        return _COMMANDS[command](args)
    except Exception as exc:
        doc = {"command": command, "ok": False,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, NotMonotone):
            doc["error"]["report"] = exc.report.to_dict()
        try:
            _emit_json(doc, args.out)
        except InputFormatError:
            # --out cannot be written: report on stdout
            _emit_json(doc, None)
            return InputFormatError.exit_code
        # errors from outside the package are internal failures
        return exc.exit_code if isinstance(exc, MonodualError) else EXIT_INTERNAL


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
