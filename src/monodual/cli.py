"""Command-line front end.

Subcommands split into checks and transforms.  Checks (validate,
monotone, duality, simulate, boundary) emit an envelope
{"command", "ok", "report"} and exit 1 when the check fails.  Transforms
(dual, discretize, evolve, dualgen) emit the produced artifact as a bare
document so outputs can feed straight back into --in.  Exit codes:
0 success, else the ``exit_code`` of the raised error class: 1 a check
failed, 2 unreadable or malformed input (a kernel that is not a measure
included), 3 internal failure (quadrature breakdown, bugs).  141 (128 +
SIGPIPE, as a shell reports a process that SIGPIPE ended) means stdout was
closed before the output was written, say by ``| head``; nothing more is
written then.

Input sniffing: a JSON document with a "rates" field is a rate matrix;
anything else is a model description.  Commands that accept both pick
the matching routine.

Each subcommand takes --in, --out and only the flags it reads (the
``_COMMANDS`` table).  These exit 2: a flag the subcommand does not read,
--h without --window or --window without --h, and either of them with a
rate-matrix document.  A command line that does not parse exits 2 with
the same error envelope on stdout, its "command" null when the first
argument names no subcommand, and argparse's usage on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
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
    _check_size,
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
EXIT_CLOSED_PIPE = 141

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
        # a closed pipe shows here, in run, not in the flush at exit
        sys.stdout.flush()


def _emit_json(doc: dict, out: Optional[str]) -> None:
    # NaN and infinities are not JSON (RFC 8259): writing one is a failure
    _emit(json.dumps(doc, indent=2, allow_nan=False), out)


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


def _parse_window(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise InputFormatError(f"window must look like LO:HI, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputFormatError(f"window bounds must be integers: {text!r}") from exc


def _lattice(args, doc, boundary: str = "absorb") -> Optional[Lattice]:
    """The lattice that --h and --window give, or None when neither is given.

    The two flags go together, and a rate-matrix document takes neither.
    """
    if args.h is None and args.window is None:
        return None
    if _is_ratematrix_doc(doc):
        raise InputFormatError("a rate matrix takes no --h or --window")
    if args.h is None or args.window is None:
        raise InputFormatError("--h and --window LO:HI go together")
    lo, hi = _parse_window(args.window)
    return Lattice(h=args.h, lo=lo, hi=hi, boundary=boundary)


def _model_grid(lattice: Optional[Lattice]) -> np.ndarray:
    return np.linspace(-5.0, 5.0, 41) if lattice is None else lattice.points()


def _cmd_validate(args) -> int:
    doc = _read_json(args.infile)
    lattice = _lattice(args, doc)
    if _is_ratematrix_doc(doc):
        return _envelope(args, True, validate_qmatrix(ratematrix_from_dict(doc)))
    report = validate_model(model_from_dict(doc), _model_grid(lattice))
    return _envelope(args, report.ok, report.to_dict())


def _cmd_monotone(args) -> int:
    doc = _read_json(args.infile)
    lattice = _lattice(args, doc)
    if _is_ratematrix_doc(doc):
        report = check_monotone(ratematrix_from_dict(doc), **_tol(args))
    else:
        report = check_levy_monotone(model_from_dict(doc), _model_grid(lattice), **_tol(args))
    return _envelope(args, report.ok, report.to_dict())


def _cmd_dual(args) -> int:
    # the chain is not bound to a name: it and the tail sums it keeps are
    # freed before the dual's text is built
    dual = dual_qmatrix(ratematrix_from_dict(_read_json(args.infile)), **_tol(args))
    _emit(ratematrix_to_json(dual), args.out)
    return EXIT_OK


def _cmd_discretize(args) -> int:
    doc = _read_json(args.infile)
    if _is_ratematrix_doc(doc):
        raise InputFormatError("discretize expects a model description")
    model = model_from_dict(doc)
    lattice = _lattice(args, doc, doc.get("boundary", "absorb"))
    if lattice is None:
        raise InputFormatError("discretize needs --h and --window LO:HI")
    rm = discretize(model, lattice)
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
    if _is_ratematrix_doc(doc):
        raise InputFormatError("dualgen expects a model description")
    model = model_from_dict(doc)
    coeffs = dual_levy(model)
    lattice = _lattice(args, doc)
    if lattice is None:
        xs, ys = np.linspace(-4.0, 4.0, 33), None
    else:
        xs = lattice.points()
        _check_size(xs.size * 4.0 / lattice.h, "nu_tilde cells")
        ys = lattice.h * np.arange(1, int(math.ceil(4.0 / lattice.h)) + 1)
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


def _sim_chain(doc: dict) -> RateMatrix:
    if "chain" in doc:
        return ratematrix_from_dict(doc["chain"])
    if "model" in doc:
        return discretize(model_from_dict(doc["model"]), _sim_lattice(doc))
    raise InputFormatError("simulation input needs 'chain' or 'model'")


def _setting(args, doc: dict, key: str, default, kind):
    """The --key flag, else the job's field of that name, else the default."""
    value = getattr(args, key)
    if value is None:
        value = doc.get(key, default)
    return None if value is None else number(value, key, kind)


def _cmd_simulate(args) -> int:
    doc = _read_json(args.infile)
    if not isinstance(doc, dict) or "op" not in doc:
        raise InputFormatError("simulation input needs an 'op' field")
    op = doc["op"]
    t = _setting(args, doc, "t", None, float)
    reps = _setting(args, doc, "reps", 10000, int)
    seed = _setting(args, doc, "seed", 0, int)
    threads = _setting(args, doc, "threads", 1, int)
    if op in ("survival", "duality", "growth", "path") and t is None:
        raise InputFormatError(f"op {op!r} needs a horizon --t")

    if op == "survival":
        rm = _sim_chain(doc)
        est = mc_survival(
            rm, _field(doc, "x0", int), _field(doc, "y", int), t,
            reps, seed, threads=threads,
        )
        return _envelope(args, True, est.to_dict())
    if op == "duality":
        rm = _sim_chain(doc)
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
        report = mc_growth_bound(
            model, lat, _field(doc, "x0"), t, number(c, "c"),
            reps, seed, threads=threads,
        )
        return _envelope(args, report.ok, report.to_dict())
    if op == "path":
        rm = _sim_chain(doc)
        path = sample_path(rm, _field(doc, "x0", int), t, seed)
        return _envelope(args, True, path.to_dict())
    raise InputFormatError(
        f"unknown op {op!r}; expected survival, duality, growth, path"
    )


def _finite(text: str) -> float:
    """A flag's number; NaN and infinities are malformed input."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# every flag a subcommand may read besides --in and --out: type, help
_FLAGS = {
    "t": (_finite, "time horizon"),
    "h": (_finite, "lattice mesh width"),
    "window": (str, "lattice window LO:HI"),
    "reps": (int, "Monte Carlo replicates"),
    "seed": (int, "random seed"),
    "margin": (int, "window margin excluded from the duality check"),
    "tol": (_finite, "tolerance override"),
    "threads": (int, "worker threads for Monte Carlo"),
}

# subcommand: handler, help line, the flags of _FLAGS that it reads
_COMMANDS = {
    "validate": (_cmd_validate, "check a rate matrix or model for structural problems",
                 ("h", "window")),
    "monotone": (_cmd_monotone,
                 "check stochastic monotonicity of a chain or kernel tails of a model",
                 ("h", "window", "tol")),
    "dual": (_cmd_dual, "construct the dual rate matrix of a monotone chain", ("tol",)),
    "discretize": (_cmd_discretize, "project a model onto a lattice window",
                   ("h", "window")),
    "evolve": (_cmd_evolve, "compute the transition matrix at a horizon", ("t", "tol")),
    "duality": (_cmd_duality,
                "verify the pathwise duality identity through matrix exponentials",
                ("t", "margin", "tol")),
    "simulate": (_cmd_simulate, "Monte Carlo: survival, duality, growth bound, or one path",
                 ("t", "reps", "seed", "threads")),
    "boundary": (_cmd_boundary, "classify the origin of a half-line model", ()),
    "dualgen": (_cmd_dualgen, "tabulate the dual generator coefficients of a model",
                ("h", "window")),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises InputFormatError on a bad command line.

    The usage and the message still go to stderr, as argparse writes them.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise InputFormatError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = _Parser(
        prog="monodual",
        description="Monotonicity and duality toolkit for one-dimensional "
        "Markov jump processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # no abbreviations: --t must not pass for --tol, nor --h for --help
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--in", dest="infile", required=True, help="input JSON file")
        p.add_argument("--out", help="write output here instead of stdout")
        for flag in flags:
            kind, flag_help = _FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, help=flag_help)
    return parser


def _error_doc(command: Optional[str], exc: Exception) -> dict:
    doc = {"command": command, "ok": False,
           "error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, NotMonotone):
        doc["error"]["report"] = exc.report.to_dict()
    return doc


def run(args, error: Optional[InputFormatError] = None) -> int:
    """Run a parsed command line, or report ``error``, that of one that did
    not parse, and map what it raises to the exit code."""
    command = args.command
    try:
        try:
            if error is not None:
                raise error
            return _COMMANDS[command][0](args)
        except BrokenPipeError:
            raise
        except Exception as exc:
            doc = _error_doc(command, exc)
            try:
                _emit_json(doc, args.out)
            except InputFormatError:
                # --out cannot be written: report on stdout
                _emit_json(doc, None)
                return InputFormatError.exit_code
            # errors from outside the package are internal failures
            return exc.exit_code if isinstance(exc, MonodualError) else EXIT_INTERNAL
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that what is
        # still buffered is dropped at exit instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


def main(argv=None) -> int:
    """Run one command line.  A malformed one writes the error envelope to
    stdout and raises SystemExit(2), as argparse exits, or SystemExit(141)
    when stdout is closed; --help exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except InputFormatError as exc:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        raise SystemExit(run(argparse.Namespace(command=command, out=None), exc)) from None
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
