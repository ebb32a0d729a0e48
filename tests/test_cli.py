import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from monodual import cli
from monodual.cli import main
from monodual.errors import MonodualError
from monodual.generator import Lattice, discretize, model_from_dict
from monodual.qmatrix import dual_qmatrix, ratematrix_to_dict

from conftest import birth_death

MODEL_DOC = {
    "b": "0",
    "nu": {
        "case": "decomposable",
        "a": "1+tanh(x)",
        "da": "4/(e^(x)+e^(-x))^2",
        "base": {
            "density": "e^(-y)",
            "support_sign": "positive",
            "tail": "e^(-a)",
        },
    },
    "growth_c": 3.0,
}

# not a measure: every command refuses it with TailMassUnresolved
NEGATIVE_DENSITY = {"case": "density", "density": "0-e^(-y)", "support_sign": "positive"}

# a + a' dips below zero where the factor falls fast: no monotone dual
STEEP_MODEL_DOC = {
    "nu": {
        "case": "decomposable",
        "a": "1+tanh(-3*x)",
        "da": "-3/cosh(3*x)^2",
        "base": {"density": "e^(-y)", "support_sign": "positive", "tail": "e^(-a)"},
    },
}

GROWTH_MODEL_DOC = {
    "mu": {
        "case": "decomposable",
        "a": "1",
        "base": {"atoms": [{"y": 1.0, "mass": 1.0}]},
    },
    "growth_c": 1.0,
}

BAD_CHAIN_DOC = {
    "lo": 0, "hi": 2, "boundary": "kill",
    "rates": [
        {"n": 0, "m": 2, "rate": 5.0},
        {"n": 1, "m": 1, "rate": 0.1},
    ],
}

# lambda = 10: a horizon of 1e308 overflows lambda * t
THREE_STATE_DOC = {
    "lo": 0, "hi": 2, "boundary": "reflect",
    "rates": [
        {"n": 0, "m": 1, "rate": 10.0},
        {"n": 1, "m": 1, "rate": 5.0},
        {"n": 2, "m": -1, "rate": 3.0},
    ],
}
OVERFLOW_MESSAGE = "lambda * t overflows: lambda=10.0, t=1e+308"


SIM_OPS = ["survival", "duality", "growth", "path"]


def sim_job(op, chain_file):
    """A small job of each simulate op, on the chain file or, for growth,
    on GROWTH_MODEL_DOC."""
    if op == "growth":
        return {"op": op, "model": GROWTH_MODEL_DOC, "lattice": {"h": 1.0, "lo": 0, "hi": 60},
                "x0": 5.0, "t": 1.0, "reps": 100}
    return {"op": op, "chain": json.load(open(chain_file)), "x0": 6, "y": 8,
            "pairs": [[6, 8]], "t": 1.0, "reps": 100}


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return write


@pytest.fixture
def chain_file(files):
    rm = birth_death(0, 12, up=1.0, down=0.5, boundary="absorb")
    return files("chain.json", ratematrix_to_dict(rm))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def fresh_cli(argv, python_flags=(), **popen):
    """``python -m monodual.cli`` in a fresh interpreter, on this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen([sys.executable, *python_flags, "-m", "monodual.cli", *argv],
                            env=env, **popen)


class TestChecks:
    def test_monotone_ok(self, capsys, chain_file):
        code, doc = run_json(capsys, ["monotone", "--in", chain_file])
        assert code == 0
        assert doc["command"] == "monotone" and doc["ok"] is True
        assert doc["report"]["monotone"] is True

    def test_monotone_violations(self, capsys, files):
        bad = files("bad.json", BAD_CHAIN_DOC)
        code, doc = run_json(capsys, ["monotone", "--in", bad])
        assert code == 1
        assert doc["ok"] is False
        assert doc["report"]["n_violations"] >= 1

    def test_monotone_model_route(self, capsys, files):
        path = files("model.json", MODEL_DOC)
        code, doc = run_json(
            capsys, ["monotone", "--in", path, "--h", "0.5", "--window=-4:4"]
        )
        assert code == 0 and doc["ok"] is True

    def test_no_signed_zero_under_kill(self, capsys, files):
        # the same chain under kill and reflect: no jump leaves the window
        chain = {"lo": 0, "hi": 2, "rates": [{"n": 2, "m": -2, "rate": 3.0}]}
        outs = []
        for boundary in ("kill", "reflect"):
            path = files(f"{boundary}.json", dict(chain, boundary=boundary))
            assert main(["monotone", "--in", path]) == 1
            outs.append(capsys.readouterr().out)
        assert '"lhs": 0.0' in outs[0] and "-0.0" not in outs[0]
        assert outs[0] == outs[1]

    def test_validate_chain(self, capsys, chain_file):
        code, doc = run_json(capsys, ["validate", "--in", chain_file])
        assert code == 0
        assert doc["report"]["n_states"] == 13

    def test_validate_model_growth_violation(self, capsys, files):
        doc_in = dict(GROWTH_MODEL_DOC)
        doc_in["mu"] = dict(doc_in["mu"], a="x^2")
        path = files("viol.json", doc_in)
        code, doc = run_json(capsys, ["validate", "--in", path])
        assert code == 1
        assert doc["error"]["type"] == "GrowthViolated"

    def test_validate_model_with_cosh(self, capsys, files):
        path = files("cosh.json", {"G": "cosh(x)"})
        code, doc = run_json(capsys, ["validate", "--in", path])
        assert code == 0 and doc["ok"] is True

    def test_duality_check(self, capsys, chain_file):
        code, doc = run_json(capsys, ["duality", "--in", chain_file, "--t", "0.5"])
        assert code == 0
        assert doc["report"]["sup_full"] < 1e-12

    def test_duality_needs_t(self, capsys, chain_file):
        code, doc = run_json(capsys, ["duality", "--in", chain_file])
        assert code == 2

    def test_boundary_halfline(self, capsys, files):
        path = files("hl.json", {
            "G": "x^2", "support": "halfline",
            "asymptotics": {"G_order": 2},
        })
        code, doc = run_json(capsys, ["boundary", "--in", path])
        assert code == 0
        assert doc["report"]["label"] == "inaccessible"

    def test_boundary_line_rejected(self, capsys, files):
        path = files("line.json", {"G": "1"})
        code, doc = run_json(capsys, ["boundary", "--in", path])
        assert code == 2


# the flags each subcommand reads, besides --in and --out
COMMAND_FLAGS = {
    "validate": {"h", "window"},
    "monotone": {"h", "window", "tol"},
    "dual": {"tol"},
    "discretize": {"h", "window"},
    "evolve": {"t", "tol"},
    "duality": {"t", "margin", "tol"},
    "simulate": {"t", "reps", "seed", "threads"},
    "boundary": set(),
    "dualgen": {"h", "window"},
}
ALL_FLAGS = set().union(*COMMAND_FLAGS.values())


class TestCommandTable:
    def test_table_has_every_command(self):
        assert set(cli._COMMANDS) == set(COMMAND_FLAGS)

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_exactly_the_commands_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out))
        read = {f"--{flag}" for flag in COMMAND_FLAGS[command]}
        assert listed == {"--help", "--in", "--out"} | read

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in COMMAND_FLAGS.items()
        for flag in sorted(ALL_FLAGS - flags)])
    def test_unread_flag_exits_2(self, capsys, chain_file, command, flag):
        # also no abbreviation: dual's --t is not its --tol
        with pytest.raises(SystemExit) as exc:
            main([command, "--in", chain_file, f"--{flag}", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "monotone", "dualgen", "discretize"])
    @pytest.mark.parametrize("flag", [["--h", "0.5"], ["--window=-4:4"]])
    def test_lone_grid_flag_exits_2(self, capsys, files, command, flag):
        path = files("model.json", MODEL_DOC)
        code, doc = run_json(capsys, [command, "--in", path, *flag])
        assert code == 2
        assert doc["error"]["message"] == "--h and --window LO:HI go together"

    @pytest.mark.parametrize("command", ["validate", "monotone"])
    @pytest.mark.parametrize("flags", [["--h", "0.5", "--window=0:12"], ["--h", "0.5"],
                                       ["--window=0:12"]])
    def test_grid_flags_on_a_rate_matrix_exit_2(self, capsys, chain_file, command, flags):
        code, doc = run_json(capsys, [command, "--in", chain_file, *flags])
        assert code == 2
        assert doc["error"]["message"] == "a rate matrix takes no --h or --window"


class TestCommandLineErrors:
    @pytest.mark.parametrize("argv, command, message", [
        (["dual", "--in", "{chain}", "--t", "1"], "dual", "unrecognized arguments: --t 1"),
        (["dual"], "dual", "the following arguments are required: --in"),
        (["evolve", "--in", "{chain}", "--t", "x"], "evolve",
         "argument --t: invalid float value: 'x'"),
        (["simulate", "--in", "{chain}", "--thr", "2"], "simulate",
         "unrecognized arguments: --thr 2"),
        (["sideways", "--in", "{chain}"], None, "argument command: invalid choice"),
        ([], None, "the following arguments are required: command"),
    ])
    def test_envelope_on_stdout_and_exit_2(self, capsys, chain_file, argv, command, message):
        with pytest.raises(SystemExit) as exc:
            main([a.format(chain=chain_file) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["command"] == command and doc["ok"] is False
        assert doc["error"]["type"] == "InputFormatError"
        assert doc["error"]["message"].startswith(message)
        assert "usage: monodual" in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["evolve", "--t", "1", "--tol", "nan"], "tol"),
        (["evolve", "--t", "nan"], "t"),
        (["evolve", "--t", "inf"], "t"),
        (["duality", "--t", "1", "--tol", "nan"], "tol"),
        (["monotone", "--tol", "nan"], "tol"),
        (["validate", "--h=-inf", "--window=0:4"], "h"),
    ])
    def test_non_finite_numbers_exit_2(self, capsys, chain_file, argv, flag):
        # a NaN tolerance used to pass every comparison it took part in
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--in", chain_file, *argv[1:]])
        assert exc.value.code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == argv[0] and doc["ok"] is False
        assert doc["error"]["type"] == "InputFormatError"
        assert doc["error"]["message"].startswith(f"argument --{flag}: not a finite number")

    def test_help_exits_0_without_an_envelope(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: monodual dual")

    def test_dualgen_rejects_a_rate_matrix(self, capsys, chain_file):
        code, doc = run_json(capsys, ["dualgen", "--in", chain_file])
        assert code == 2
        assert doc == {"command": "dualgen", "ok": False, "error": {
            "type": "InputFormatError", "message": "dualgen expects a model description"}}


class TestTransforms:
    def test_dual_is_bare_artifact(self, capsys, chain_file):
        code, doc = run_json(capsys, ["dual", "--in", chain_file])
        assert code == 0
        assert "command" not in doc
        assert set(doc) >= {"lo", "hi", "boundary", "rates"}
        rm = birth_death(0, 12, up=1.0, down=0.5, boundary="absorb")
        assert doc == ratematrix_to_dict(dual_qmatrix(rm))

    def test_dual_output_feeds_back(self, capsys, tmp_path, chain_file):
        out = str(tmp_path / "dual.json")
        assert main(["dual", "--in", chain_file, "--out", out]) == 0
        assert capsys.readouterr().out == ""
        code, doc = run_json(capsys, ["validate", "--in", out])
        assert code == 0

    def test_dual_not_monotone_envelope(self, capsys, files):
        bad = files("bad.json", BAD_CHAIN_DOC)
        code, doc = run_json(capsys, ["dual", "--in", bad])
        assert code == 1
        assert doc["error"]["type"] == "NotMonotone"
        assert doc["error"]["report"]["n_violations"] >= 1

    def test_dual_rejects_fractional_offset(self, capsys, files):
        path = files("chain.json", {"lo": 0, "hi": 3, "boundary": "kill",
                                    "rates": [{"n": 0, "m": 1.5, "rate": 1.0}]})
        code, doc = run_json(capsys, ["dual", "--in", path])
        assert code == 2
        assert doc["error"]["type"] == "InputFormatError"

    def test_discretize(self, capsys, files):
        path = files("model.json", MODEL_DOC)
        code, doc = run_json(
            capsys, ["discretize", "--in", path, "--h", "0.5", "--window=-4:4"]
        )
        assert code == 0
        assert doc["lo"] == -4 and doc["hi"] == 4
        assert doc["boundary"] == "absorb"
        assert len(doc["rates"]) > 0

    def test_discretize_reads_the_model_boundary(self, capsys, files):
        path = files("model.json", dict(MODEL_DOC, boundary="kill"))
        code, doc = run_json(
            capsys, ["discretize", "--in", path, "--h", "0.5", "--window=-4:4"]
        )
        assert code == 0
        assert doc["boundary"] == "kill"

    def test_rate_tables_print_as_json_dumps(self, capsys, files, chain_file):
        rm = birth_death(0, 12, up=1.0, down=0.5, boundary="absorb")
        assert main(["dual", "--in", chain_file]) == 0
        want = json.dumps(ratematrix_to_dict(dual_qmatrix(rm)), indent=2) + "\n"
        assert capsys.readouterr().out == want
        path = files("model.json", MODEL_DOC)
        assert main(["discretize", "--in", path, "--h", "0.25", "--window=-8:8"]) == 0
        rm = discretize(model_from_dict(MODEL_DOC), Lattice(h=0.25, lo=-8, hi=8))
        want = json.dumps(ratematrix_to_dict(rm), indent=2) + "\n"
        assert capsys.readouterr().out == want

    def test_discretize_needs_lattice_flags(self, capsys, files):
        path = files("model.json", MODEL_DOC)
        code, _doc = run_json(capsys, ["discretize", "--in", path])
        assert code == 2

    def test_discretize_rejects_chain_input(self, capsys, chain_file):
        code, doc = run_json(
            capsys, ["discretize", "--in", chain_file, "--h", "0.5",
                     "--window=0:4"]
        )
        assert code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, evaluating the model
    @pytest.mark.parametrize("model, message", [
        ({"G": "1/(x-x)", "b": "0"}, "G is not finite at x=-1.0"),
        ({"b": "(x-x)/(x-x)"}, "b is not finite at x=-1.0"),
    ])
    def test_discretize_rejects_non_finite_coefficients(self, capsys, files, model, message):
        # they came out as Infinity and NaN rates, with exit 0
        path = files("model.json", model)
        code, doc = run_json(
            capsys, ["discretize", "--in", path, "--h", "0.5", "--window=-2:2"]
        )
        assert code == 2
        assert doc["error"]["message"] == message

    def test_bad_window_format(self, capsys, files):
        path = files("model.json", MODEL_DOC)
        code, _doc = run_json(
            capsys, ["discretize", "--in", path, "--h", "0.5", "--window", "4"]
        )
        assert code == 2

    def test_evolve(self, capsys, chain_file):
        code, doc = run_json(capsys, ["evolve", "--in", chain_file, "--t", "0.5"])
        assert code == 0
        assert len(doc["P"]) == 13
        row = doc["P"][5]
        assert abs(sum(row) - 1.0) < 1e-9

    def test_evolve_needs_t(self, capsys, chain_file):
        code, _doc = run_json(capsys, ["evolve", "--in", chain_file])
        assert code == 2

    def test_evolve_rejects_a_negative_tolerance(self, capsys, chain_file):
        code, doc = run_json(capsys, ["evolve", "--in", chain_file, "--t", "1", "--tol", "-1"])
        assert code == 2
        assert doc["error"]["type"] == "InputFormatError"

    @pytest.mark.parametrize("argv, doc", [
        (["monotone"], None), (["dual"], None), (["duality", "--t", "1"], None),
        (["monotone"], MODEL_DOC),
    ], ids=["monotone", "dual", "duality", "monotone-model"])
    def test_negative_tolerance_is_malformed(self, capsys, files, chain_file, argv, doc):
        # monotone and dual read every pair as a violation and exited 1
        path = chain_file if doc is None else files("model.json", doc)
        code, out = run_json(capsys, [*argv, "--in", path, "--tol", "-1"])
        assert code == 2
        assert out["error"] == {"type": "InputFormatError",
                                "message": "tolerance must be finite and at least 0, got -1.0"}
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("doc, message", [
        ({"nu": {"case": "decomposable", "a": "1", "support_sign": "positive",
                 "base": {"density": "e^(-abs(y))"}}},
         "dual construction needs a kernel with upward jumps only"),
        (dict(MODEL_DOC, mu={"case": "decomposable", "a": "5",
                             "base": {"atoms": [{"y": -1.0, "mass": 1.0}]}}),
         "dual construction takes no uncompensated kernel mu"),
        (GROWTH_MODEL_DOC, "model has no compensated jump kernel"),
        ({"nu": {"case": "tabulated", "right_tail": "e^(-a)"}},
         "no dual construction for a TabulatedKernel"),
    ], ids=["two-sided-base", "mu", "no-nu", "tabulated"])
    def test_dualgen_refuses_what_it_cannot_dualize(self, capsys, files, doc, message):
        # the first two wrote a table without the left jumps, with exit 0;
        # the last two exited 3
        code, out = run_json(capsys, ["dualgen", "--in", files("model.json", doc)])
        assert code == 2
        assert out["error"] == {"type": "UnsupportedKernelCase", "message": message}
        assert capsys.readouterr().err == ""

    def test_dualgen_default_grid(self, capsys, files):
        path = files("model.json", MODEL_DOC)
        code, doc = run_json(capsys, ["dualgen", "--in", path])
        assert code == 0
        assert len(doc["x"]) == 33
        assert "nu_tilde" not in doc
        assert doc["case"] == "decomposable"

    def test_dualgen_lattice_grid(self, capsys, files):
        path = files("model.json", MODEL_DOC)
        code, doc = run_json(
            capsys, ["dualgen", "--in", path, "--h", "0.5", "--window=0:4"]
        )
        assert code == 0
        assert len(doc["x"]) == 5
        assert len(doc["y"]) == 8  # magnitudes up to 4 in steps of 0.5
        assert len(doc["nu_tilde"]) == 5

    @pytest.mark.parametrize("grid", [[], ["--h", "0.25", "--window=-8:8"]])
    def test_dualgen_negative_dual_density_exits_1(self, capsys, files, grid):
        path = files("steep.json", STEEP_MODEL_DOC)
        code, doc = run_json(capsys, ["dualgen", "--in", path, *grid])
        assert code == 1
        assert doc["error"]["type"] == "NegativeDualDensity"

    def test_dualgen_csv(self, capsys, tmp_path, files):
        path = files("model.json", MODEL_DOC)
        out = str(tmp_path / "coeffs.csv")
        assert main(["dualgen", "--in", path, "--out", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "x,G,drift,correction"
        assert len(lines) == 34


class TestSimulate:
    def test_survival(self, capsys, files, chain_file):
        doc_in = {
            "op": "survival",
            "chain": json.load(open(chain_file)),
            "x0": 6, "y": 8, "t": 1.0, "reps": 2000, "seed": 5,
        }
        path = files("sim.json", doc_in)
        code, doc = run_json(capsys, ["simulate", "--in", path])
        assert code == 0
        assert 0.0 <= doc["report"]["value"] <= 1.0
        assert doc["report"]["seed"] == 5

    def test_flag_overrides_and_determinism(self, tmp_path, files, chain_file):
        doc_in = {
            "op": "survival",
            "chain": json.load(open(chain_file)),
            "x0": 6, "y": 8, "t": 1.0,
        }
        path = files("sim.json", doc_in)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        argv = ["simulate", "--in", path, "--reps", "3000", "--seed", "17"]
        assert main(argv + ["--out", out1]) == 0
        assert main(argv + ["--threads", "8", "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_duality_op(self, capsys, files, chain_file):
        doc_in = {
            "op": "duality",
            "chain": json.load(open(chain_file)),
            "pairs": [[6, 5], [6, 8]], "t": 0.5, "reps": 2000, "seed": 3,
        }
        path = files("sim.json", doc_in)
        code, doc = run_json(capsys, ["simulate", "--in", path])
        assert code == 0
        assert doc["report"]["max_abs_z"] <= 3.0

    def test_growth_op(self, capsys, files):
        doc_in = {
            "op": "growth",
            "model": GROWTH_MODEL_DOC,
            "lattice": {"h": 1.0, "lo": 0, "hi": 60},
            "x0": 5.0, "t": 1.0, "reps": 3000, "seed": 11,
        }
        path = files("sim.json", doc_in)
        code, doc = run_json(capsys, ["simulate", "--in", path])
        assert code == 0
        assert doc["report"]["ok"] is True
        assert doc["report"]["escape_fraction"] == 0.0

    @pytest.mark.parametrize("c, t", [(1000.0, 1.0), (math.nan, 1.0), (1.0, 1e6)])
    def test_growth_bound_that_overflows_is_malformed(self, capsys, files, c, t):
        # math.exp(c * t) raised OverflowError: exit 3
        doc_in = {
            "op": "growth", "model": GROWTH_MODEL_DOC, "c": c,
            "lattice": {"h": 1.0, "lo": 0, "hi": 60},
            "x0": 5.0, "t": t, "reps": 3000, "seed": 11,
        }
        code, doc = run_json(capsys, ["simulate", "--in", files("sim.json", doc_in)])
        assert code == 2
        assert doc["error"]["type"] == "InputFormatError"
        assert doc["error"]["message"].startswith("the growth bound")

    def test_path_op(self, capsys, files, chain_file):
        doc_in = {
            "op": "path",
            "chain": json.load(open(chain_file)),
            "x0": 6, "t": 2.0, "seed": 1,
        }
        path = files("sim.json", doc_in)
        code, doc = run_json(capsys, ["simulate", "--in", path])
        assert code == 0
        assert doc["report"]["states"][0] == 6

    def test_model_plus_lattice_route(self, capsys, files):
        doc_in = {
            "op": "survival",
            "model": MODEL_DOC,
            "lattice": {"h": 0.5, "lo": -4, "hi": 4},
            "x0": 0, "y": 2, "t": 0.5, "reps": 1000, "seed": 2,
        }
        path = files("sim.json", doc_in)
        code, doc = run_json(capsys, ["simulate", "--in", path])
        assert code == 0

    def test_unknown_op(self, capsys, files):
        path = files("sim.json", {"op": "teleport", "t": 1.0})
        code, _doc = run_json(capsys, ["simulate", "--in", path])
        assert code == 2

    def test_missing_op(self, capsys, files):
        path = files("sim.json", {"t": 1.0})
        code, _doc = run_json(capsys, ["simulate", "--in", path])
        assert code == 2

    @pytest.mark.parametrize("field", ["x0", "y", "lattice.h", "reps", "pairs",
                                       "x0 2.7", "y 3.9", "reps 1000.6", "seed 1.5",
                                       "lattice.lo -0.5", "pairs 2.5", "reps true"])
    def test_malformed_job_is_parse_error(self, capsys, files, field):
        doc_in = {
            "op": "survival",
            "model": MODEL_DOC,
            "lattice": {"h": 0.5, "lo": -4, "hi": 4},
            "x0": 0, "y": 2, "t": 0.5, "reps": 1000, "seed": 2,
        }
        if " " in field:  # a non-integral number or a bool where an integer belongs
            key, value = field.split()
            value = json.loads(value)
            if key == "pairs":
                doc_in.update(op="duality", pairs=[[0, value]])
            elif key == "lattice.lo":
                doc_in["lattice"]["lo"] = value
            else:
                doc_in[key] = value
        elif field == "reps":
            doc_in["reps"] = "many"
        elif field == "pairs":
            doc_in.update(op="duality", pairs=[[0, "top"]])
        elif field == "lattice.h":
            del doc_in["lattice"]["h"]
        else:
            del doc_in[field]
        path = files("sim.json", doc_in)
        code, doc = run_json(capsys, ["simulate", "--in", path])
        assert code == 2
        assert doc["error"]["type"] == "InputFormatError"

    @pytest.mark.parametrize("op", ["survival", "duality"])
    def test_integral_floats_are_integers(self, capsys, files, op):
        as_ints = {
            "op": op, "model": MODEL_DOC, "lattice": {"h": 0.5, "lo": -4, "hi": 4},
            "x0": 0, "y": 2, "pairs": [[0, 2]], "t": 0.5, "reps": 1000, "seed": 2,
        }
        as_floats = {**as_ints, "lattice": {"h": 0.5, "lo": -4.0, "hi": 4.0},
                     "x0": 0.0, "y": 2.0, "pairs": [[0.0, 2.0]], "reps": 1000.0, "seed": 2.0}
        outs = []
        for doc_in in (as_ints, as_floats):
            code = main(["simulate", "--in", files("sim.json", doc_in)])
            outs.append((code, capsys.readouterr().out))
        assert outs[0][0] in (0, 1) and outs[1] == outs[0]

    @pytest.mark.parametrize("op", SIM_OPS)
    @pytest.mark.parametrize("seed, code", [
        (-1, 2), (2**64, 2), (2**64 - 1, 0), (2**63 + 1, 0),
    ])
    def test_seed_range(self, capsys, files, chain_file, op, seed, code):
        # -1 wrapped to the key 2**64 - 1, 2**64 raised OverflowError (exit
        # 3), and 2**64 - 1 replayed seed 0 with a RuntimeWarning
        path = files("sim.json", sim_job(op, chain_file))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, doc = run_json(capsys, ["simulate", "--in", path, "--seed", str(seed)])
        assert got == code and capsys.readouterr().err == ""
        if code:
            assert doc["error"] == {"type": "InputFormatError", "message":
                                    f"a seed is an integer in [0, 2**64), got {seed}"}
        else:
            assert doc["report"]["seed"] == seed

    @pytest.mark.parametrize("op, rate", [("survival", -1.0), ("path", math.nan)])
    def test_bad_rate_is_parse_error(self, capsys, files, op, rate):
        chain = {"lo": 0, "hi": 4, "boundary": "absorb",
                 "rates": [{"n": 1, "m": 1, "rate": 1.0},
                           {"n": 2, "m": -1, "rate": rate}]}
        path = files("sim.json", {"op": op, "chain": chain, "x0": 2, "y": 3,
                                  "t": 1.0, "reps": 100, "seed": 1})
        code, doc = run_json(capsys, ["simulate", "--in", path])
        assert code == 2
        assert doc["error"]["type"] in ("NegativeRate", "InputFormatError")


HALFLINE = {"G": "x", "b": "1", "support": "halfline"}


class TestErrorPaths:
    @pytest.mark.parametrize("command, doc", [
        ("validate", dict(MODEL_DOC, growth_c="abc")),
        ("validate", {"nu": {"case": "density", "density": "e^(-y)",
                             "support_sign": "positive", "y_min": "low"}}),
        ("validate", {"nu": {"case": "decomposable", "a": "1",
                             "base": {"density": "e^(-y)", "y_min": [0]}}}),
        ("boundary", dict(HALFLINE, asymptotics=[1, 2])),
        ("boundary", dict(HALFLINE, asymptotics={"G_order": "two"})),
        ("boundary", dict(HALFLINE, asymptotics={"G_order": 1, "alpha": "a",
                                                 "b0": 1.0})),
        ("boundary", dict(HALFLINE, asymptotics={"G_order": 1, "alpha": 1.0,
                                                 "b0": "b"})),
        ("validate", {"mu": {"case": "decomposable", "a": "1",
                             "base": {"atoms": 5}}}),
    ])
    def test_malformed_model_is_parse_error(self, capsys, files, command, doc):
        path = files("model.json", doc)
        code, out = run_json(capsys, [command, "--in", path])
        assert code == 2
        assert out["error"]["type"] == "InputFormatError"

    @pytest.mark.parametrize("command, doc, unknown", [
        ("validate", dict(MODEL_DOC, grwoth_c=3.0), "['grwoth_c']"),
        ("discretize", dict(MODEL_DOC, window="-2:2"), "['window']"),
        ("dualgen", {"lo": 0, "hi": 2, "boundary": "kill"}, "['hi', 'lo']"),
    ])
    def test_unknown_model_field_is_parse_error(self, capsys, files, command, doc, unknown):
        path = files("model.json", doc)
        argv = [command, "--in", path] + (["--h", "0.5", "--window=-2:2"]
                                          if command == "discretize" else [])
        code, out = run_json(capsys, argv)
        assert code == 2
        assert out["error"]["type"] == "InputFormatError"
        assert f"unknown model fields {unknown}" in out["error"]["message"]

    def test_every_error_has_an_exit_code(self):
        assert MonodualError.exit_code == 3
        codes = {cls.__name__: cls.exit_code
                 for cls in MonodualError.__subclasses__()}
        assert set(codes.values()) <= {1, 2, 3}
        assert {name for name, code in codes.items() if code == 2} == {
            "InputFormatError", "NegativeRate", "TailMassUnresolved", "UnsupportedKernelCase"}
        assert {name for name, code in codes.items() if code == 1} == {
            "NotMonotone", "DualRateNegative", "NegativeDualDensity",
            "GrowthViolated", "MomentUnbounded", "WindowEscape"}

    def test_missing_file(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, ["monotone", "--in", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert doc["error"]["type"] == "InputFormatError"

    def test_in_is_a_directory(self, capsys, tmp_path):
        code, doc = run_json(capsys, ["dual", "--in", str(tmp_path)])
        assert code == 2
        assert doc["error"]["type"] == "InputFormatError"

    def test_in_is_not_utf8(self, capsys, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"lo": 0, "boundary": "\xe9"}')
        code, doc = run_json(capsys, ["dual", "--in", str(p)])
        assert code == 2
        assert doc["error"]["type"] == "InputFormatError"

    @pytest.mark.parametrize("command", ["dual", "monotone"])
    def test_unwritable_out_reports_on_stdout(self, capsys, tmp_path, chain_file, command):
        code, doc = run_json(capsys, [command, "--in", chain_file, "--out", str(tmp_path)])
        assert code == 2
        assert doc["ok"] is False
        assert doc["error"]["type"] == "InputFormatError"
        assert "cannot write" in doc["error"]["message"]

    def test_parser_built_once(self, capsys, chain_file):
        parser = cli._build_parser()
        for _ in range(2):
            assert main(["validate", "--in", chain_file]) == 0
        assert cli._build_parser() is parser
        capsys.readouterr()

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, doc = run_json(capsys, ["monotone", "--in", str(p)])
        assert code == 2

    @pytest.mark.parametrize("nu", [
        {"case": "decomposable", "a": "1", "base": {"tail": "1/(a-a)", "support_sign": "positive"}},
        {"case": "tabulated", "right_tail": "0-1"},
        {"case": "density", "density": "0-e^(-y)", "support_sign": "positive"},
    ], ids=["infinite-tail", "negative-tail", "negative-density"])
    def test_unresolved_kernel_mass_is_malformed(self, capsys, files, nu):
        # a kernel that is not a measure exited 3, the infinite tail with a
        # numpy warning on inf - inf
        path = files("neg.json", {"nu": nu})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_json(
                capsys, ["discretize", "--in", path, "--h", "0.5", "--window=-2:2"]
            )
        assert code == 2
        assert doc["error"]["type"] == "TailMassUnresolved"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("nu, argv, where, value", [
        (NEGATIVE_DENSITY, ["validate"], "nu moment at x=-5.0", -0.8963616764856734),
        (NEGATIVE_DENSITY, ["monotone"], "nu right tail at a=0.25, x=-5.0", -math.exp(-0.25)),
        (NEGATIVE_DENSITY, ["dualgen", "--h", "0.5", "--window=-2:2"],
         "nu density at x=-1.5, y=0.5", -math.exp(-0.5)),
        ({"case": "tabulated", "right_tail": "0-1"}, ["monotone"],
         "nu right tail at a=0.25, x=-5.0", -1.0),
    ], ids=["validate", "monotone", "dualgen", "monotone-tail"])
    def test_every_command_reads_one_mass_rule(self, capsys, files, nu, argv, where, value):
        # validate and monotone exited 0 and dualgen 1 (NegativeDualDensity)
        # on kernels that discretize refuses
        path = files("neg.json", {"nu": nu})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_json(capsys, [*argv, "--in", path])
        assert code == 2
        assert doc["error"]["type"] == "TailMassUnresolved"
        message, got = doc["error"]["message"].rsplit(" is negative: ", 1)
        assert message == where
        assert float(got) == pytest.approx(value, rel=1e-12)
        assert capsys.readouterr().err == ""

    def test_support_sign_clips_a_base_as_a_density(self, capsys, files):
        # the base kept its mass on (-1, 0): discretize emitted offset -2,
        # and dualgen refused the kernel (exit 2)
        base = {"density": "e^(-abs(y))", "support_sign": "positive", "y_min": -1}
        paths = [files("base.json", {"nu": {"case": "decomposable", "a": "1", "base": base}}),
                 files("density.json", {"nu": dict(base, case="density")})]
        for command in ("discretize", "dualgen"):
            docs = []
            for path in paths:
                code, doc = run_json(capsys, [command, "--in", path, "--h", "0.5", "--window=-2:2"])
                assert code == 0
                docs.append(dict(doc, case=None))
            assert docs[0] == docs[1]
            if command == "discretize":  # the compensation at -1, no left bin
                assert min(r["m"] for r in docs[0]["rates"]) == -1

    @pytest.mark.parametrize("argv, x", [
        (["discretize", "--h", "0.1", "--window=-5:5"], -0.5),
        (["validate"], -5.0),  # the default grid
    ])
    def test_non_finite_coefficient_warns_nothing(self, files, argv, x):
        # numpy's divide by zero neither prints a warning nor, under
        # warnings-as-errors, becomes an internal failure
        path = files("model.json", {"G": "1/(x-x)", "b": "0"})
        proc = fresh_cli([*argv, "--in", path], ("-W", "error::RuntimeWarning"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, "")
        doc = json.loads(out)
        assert doc["error"] == {"type": "InputFormatError",
                                "message": f"G is not finite at x={x}"}

    @pytest.mark.parametrize("base", [
        MODEL_DOC["nu"]["base"],
        # the base tail is 0 past y_max, where inf * 0 is NaN
        {"density": "1", "support_sign": "positive", "y_min": 0, "y_max": 0.75},
    ])
    def test_dualgen_with_a_pole_in_da_warns_nothing(self, files, base):
        # the dual density came out as Infinity, with exit 0 and numpy's
        # warning on stderr
        doc = dict(MODEL_DOC, nu=dict(MODEL_DOC["nu"], da="1/(x-x)", base=base))
        path = files("pole.json", doc)
        proc = fresh_cli(["dualgen", "--in", path, "--h", "0.5", "--window=-1:1"],
                         ("-W", "error::RuntimeWarning"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, "")
        assert json.loads(out)["error"] == {
            "type": "InputFormatError", "message": "nu_tilde is not finite at x=-0.5, y=0.5"}

    @pytest.mark.parametrize("command", ["discretize", "validate", "monotone", "dualgen"])
    @pytest.mark.parametrize("nu", [
        {"case": "density", "density": "(y-y)/(y-y)", "support_sign": "positive"},
        {"case": "decomposable", "a": "1",
         "base": {"density": "(y-y)/(y-y)", "support_sign": "positive"}},
    ], ids=["density", "base"])
    def test_nan_density_is_malformed(self, files, command, nu):
        # bisection of the NaN panels raised QuadratureFailure (exit 3)
        path = files("nan.json", {"nu": nu})
        proc = fresh_cli([command, "--in", path, "--h", "0.5", "--window=-2:2"],
                         ("-W", "error::RuntimeWarning"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, "")
        assert json.loads(out)["error"] == {
            "type": "InputFormatError", "message": "the model's integrand is not a number"}

    @pytest.mark.parametrize("command", ["discretize", "validate", "monotone", "dualgen"])
    @pytest.mark.parametrize("nu", [
        {"case": "density", "density": "1/(y-y)", "support_sign": "positive"},
        {"case": "decomposable", "a": "1",
         "base": {"density": "1/(y-y)", "support_sign": "positive"}},
    ], ids=["density", "base"])
    def test_infinite_density_is_malformed(self, files, command, nu):
        # inf - inf in the Gauss-Legendre error estimate warned, and the
        # warning was an internal failure (exit 3)
        path = files("inf.json", {"nu": nu})
        proc = fresh_cli([command, "--in", path, "--h", "0.5", "--window=-2:2"],
                         ("-W", "error::RuntimeWarning"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, "")
        assert json.loads(out)["error"] == {
            "type": "InputFormatError", "message": "the model's integrand is not finite"}

    @pytest.mark.parametrize("coefficient", ["G", "b"])
    def test_overflowing_rate_is_malformed(self, files, coefficient):
        # the rate was written as Infinity, not JSON, with exit 0 and
        # numpy's overflow warning on stderr; RateMatrix names the first
        # such entry
        path = files("big.json", {coefficient: "1e308"})
        proc = fresh_cli(["discretize", "--in", path, "--h", "0.1", "--window=-2:2"],
                         ("-W", "error::RuntimeWarning"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, "")
        assert json.loads(out)["error"] == {
            "type": "InputFormatError",
            "message": "rate at (-2, 1) is not finite: inf"}

    @pytest.mark.parametrize("command", ["validate", "discretize", "monotone", "dualgen"])
    def test_overflowing_kernel_mass_is_malformed(self, files, command):
        # a(x) times the base measure overflowed with numpy's warning: validate
        # exited 1, discretize 3, monotone and dualgen 2
        path = files("mass.json", {"nu": {"case": "decomposable", "a": "1e308",
                                          "base": {"atoms": [{"y": 1.0, "mass": 2.0}]}}})
        mesh = ["--h", "0.5", "--window=-2:2"] if command == "discretize" else []
        proc = fresh_cli([command, "--in", path, *mesh], ("-W", "error::RuntimeWarning"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, "")
        error = json.loads(out)["error"]
        assert error["type"] == "InputFormatError"
        assert error["message"].startswith("a(x) times the base measure overflows at x=")

    @pytest.mark.parametrize("argv", [
        ["validate"], ["monotone"], ["dual"], ["evolve", "--t", "1"], ["duality", "--t", "1"],
        ["simulate"],
    ], ids=lambda argv: argv[0])
    def test_overflowing_row_sum_is_malformed(self, files, argv):
        # every rate is finite but the rows of states 0 and 2 sum to inf:
        # validate exited 3 writing the infinite exit rate, monotone 0 and
        # dual 2 with numpy's overflow warnings on stderr.  The table's
        # total is past the headroom 2**1020
        chain = {"lo": 0, "hi": 2, "boundary": "reflect",
                 "rates": [{"n": n, "m": m, "rate": 1e308}
                           for n, m in [(0, 1), (0, 2), (1, 1), (2, -1), (2, -2)]]}
        doc = ({"op": "survival", "x0": 1, "y": 2, "t": 1.0, "reps": 100, "chain": chain}
               if argv == ["simulate"] else chain)
        path = files("rowsum.json", doc)
        proc = fresh_cli([*argv, "--in", path], ("-W", "error::RuntimeWarning"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, "")
        assert json.loads(out)["error"] == {
            "type": "InputFormatError",
            "message": "the rates sum to inf, past the headroom 2**1020"}

    @pytest.mark.parametrize("command", [
        "validate", "dualgen", "monotone", "discretize", "simulate"])
    def test_window_whose_points_collapse_is_malformed(self, files, command):
        # past 2**53 the window's integers, so its grid points, meet in
        # float: validate and dualgen exited 0 on three equal points,
        # monotone exited 2 from its own grid check and discretize from
        # the rate table
        lo, hi = 2 ** 63, 2 ** 63 + 2
        if command == "simulate":
            doc = {"op": "growth", "model": GROWTH_MODEL_DOC,
                   "lattice": {"h": 0.5, "lo": lo, "hi": hi},
                   "x0": 5.0, "t": 1.0, "reps": 100}
            argv = [command, "--in", files("sim.json", doc)]
        else:
            argv = [command, "--in", files("model.json", MODEL_DOC),
                    "--h", "0.5", f"--window={lo}:{hi}"]
        proc = fresh_cli(argv, ("-W", "error::RuntimeWarning"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, "")
        assert json.loads(out)["error"] == {
            "type": "InputFormatError",
            "message": f"lattice window [{lo}, {hi}] at mesh 0.5 has points that are "
                       f"equal in float"}

    @pytest.mark.parametrize("atom, message", [
        ('{"y": true, "mass": true}', "'atom y' must be a number, got True"),
        ('{"y": "nan", "mass": 1}', "atom at y=nan is not a finite nonzero jump"),
        ('{"y": 1e400, "mass": 1}', "atom at y=inf is not a finite nonzero jump"),
    ], ids=["bool", "nan", "overflow"])
    def test_atom_entries_are_finite_numbers(self, capsys, tmp_path, atom, message):
        # a bool was a unit atom and a NaN size was dropped (exit 0); an
        # infinite size was an OverflowError in discretize (exit 3)
        path = tmp_path / "atom.json"
        path.write_text('{"mu": {"case": "decomposable", "a": "1", "base": {"atoms": [%s]}}}'
                        % atom)
        for argv in (["discretize", "--h", "0.5", "--window=-2:2"], ["validate"]):
            code, doc = run_json(capsys, [*argv, "--in", str(path)])
            assert code == 2
            assert doc["error"] == {"type": "InputFormatError", "message": message}

    @pytest.mark.parametrize("window, entries", [
        ((0, 2), [{"n": 0, "m": 1, "rate": True}, {"n": 1, "m": True, "rate": 0.5}]),
        ((0, 2), [{"n": 0, "m": 1, "rate": True}, {"n": 1, "m": 1, "rate": 0.5}]),
        ((0, 2), [{"n": 0, "m": 1, "rate": True}]),
        ((0, 2), [{"n": 0, "m": 1, "rate": 1.0}, {"n": 1, "m": True, "rate": 0.5}]),
        ((False, True), [{"n": 0, "m": 1, "rate": 1.0}]),
    ], ids=["rate and m", "rate", "all rates", "m", "lo and hi"])
    def test_booleans_are_not_numbers(self, capsys, files, window, entries):
        # a bool was read as 1 or 0 (exit 0)
        lo, hi = window
        path = files("chain.json", {"lo": lo, "hi": hi, "boundary": "reflect", "rates": entries})
        code, doc = run_json(capsys, ["dual", "--in", path])
        assert code == 2
        assert doc["error"]["type"] == "InputFormatError"

    @pytest.mark.parametrize("tail, message", [
        # negative at x < 0 before it is infinite at x = 0
        ("e^(-a)/x", "nu right tail at a=0.25, x=-1.0 is negative: -0.77880078307"),
        ("e^(-a)/abs(x)", "nu right tail at a=0.25, x=0.0 is not finite"),
        ("(x-x)/(x-x)", "nu right tail at a=0.25, x=-1.0 is not finite"),
    ])
    def test_monotone_rejects_a_tail_that_is_not_finite(self, capsys, files, tail, message):
        # an infinite tail was a violation written as Infinity (exit 1), and
        # a NaN one passed the check; the first tail that breaks the mass
        # rule of discretize is named
        path = files("model.json", {"nu": {"case": "tabulated", "right_tail": tail}})
        code, doc = run_json(capsys, ["monotone", "--in", path, "--h", "0.25", "--window=-4:4"])
        assert code == 2
        assert doc["error"]["type"] == "TailMassUnresolved"
        assert doc["error"]["message"].startswith(message)

    def test_non_finite_json_is_not_written(self, capsys):
        with pytest.raises(ValueError):
            cli._emit_json({"value": math.inf}, None)
        assert capsys.readouterr().out == ""

    def test_dualgen_with_a_pole_in_G_is_malformed(self, capsys, files):
        path = files("pole.json", dict(MODEL_DOC, G="1/x"))
        code, doc = run_json(capsys, ["dualgen", "--in", path, "--h", "0.25", "--window=-1:1"])
        assert code == 2
        assert doc["error"] == {"type": "InputFormatError",
                                "message": "G is not finite at x=0.0"}

    @pytest.mark.parametrize("flags", [[], ["--t", "1"]])
    def test_closed_stdout_exits_with_the_pipe_code(self, files, flags):
        # the dual's text is far longer than a pipe buffer: its reader
        # closes after the first byte.  The error envelope of a command line
        # that does not parse is shorter than one, so its reader is closed
        # before the command starts.
        rm = birth_death(0, 2999, up=1.0, down=0.5, boundary="reflect")
        path = files("chain3000.json", ratematrix_to_dict(rm))
        read, write = os.pipe()
        if flags:
            os.close(read)
        proc = fresh_cli(["dual", "--in", path, *flags], stdout=write, stderr=subprocess.PIPE)
        os.close(write)
        if not flags:
            with os.fdopen(read, "rb") as out:
                assert out.read(1) == b"{"
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_CLOSED_PIPE == 141
        if flags:  # argparse's usage and message, and no traceback
            assert err.startswith(b"usage: monodual") and b"Traceback" not in err
        else:
            assert err == b""

    @pytest.mark.parametrize("command", ["evolve", "duality"])
    def test_overflowing_horizon_is_malformed(self, capsys, files, command):
        # the halving loop of uniformization raised OverflowError (exit 3)
        path = files("chain.json", THREE_STATE_DOC)
        code, doc = run_json(capsys, [command, "--in", path, "--t", "1e308"])
        assert code == 2
        assert doc["error"] == {"type": "InputFormatError", "message": OVERFLOW_MESSAGE}

    @pytest.mark.parametrize("argv", [
        ["evolve"], ["duality"], *(["simulate", op] for op in SIM_OPS),
    ], ids=lambda argv: "-".join(argv))
    def test_negative_horizon_is_malformed(self, capsys, files, chain_file, argv):
        # the simulate ops said "bad horizon -1.0"
        path = chain_file if len(argv) == 1 else files("sim.json", sim_job(argv[1], chain_file))
        code, doc = run_json(capsys, [argv[0], "--in", path, "--t", "-1"])
        assert code == 2
        assert doc["error"] == {"type": "InputFormatError",
                                "message": "time must be finite and at least 0, got -1.0"}

    def test_overflowing_survival_horizon_is_malformed(self, capsys, files):
        # the block width raised OverflowError (exit 3)
        job = {"op": "survival", "x0": 0, "y": 1, "reps": 10, "chain": THREE_STATE_DOC}
        path = files("job.json", job)
        code, doc = run_json(capsys, ["simulate", "--in", path, "--t", "1e308"])
        assert code == 2
        assert doc["error"] == {"type": "InputFormatError", "message": OVERFLOW_MESSAGE}

    @pytest.mark.parametrize("t, message", [
        ("1e308", OVERFLOW_MESSAGE),
        ("1e300", "a path expects more than 1e+06 jumps: lambda=10.0, t=1e+300"),
    ])
    def test_path_horizon_without_end_is_malformed(self, files, t, message):
        # the path jumped until it was stopped: a fresh process, with a timeout
        path = files("job.json", {"op": "path", "x0": 0, "chain": THREE_STATE_DOC})
        proc = fresh_cli(["simulate", "--in", path, "--t", t],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 2 and err == b""
        assert json.loads(out)["error"] == {"type": "InputFormatError", "message": message}

    def test_survival_horizon_past_the_jump_cap_is_malformed(self, capsys, files):
        # the replicate jumped until it was stopped (timeout, exit 124)
        chain = {"lo": 0, "hi": 2, "boundary": "reflect",
                 "rates": [{"n": 0, "m": 1, "rate": 1e300}, {"n": 1, "m": -1, "rate": 1e300}]}
        job = {"op": "survival", "x0": 0, "y": 1, "t": 1.0, "reps": 1, "chain": chain}
        code, doc = run_json(capsys, ["simulate", "--in", files("job.json", job)])
        assert code == 2
        assert doc["error"] == {"type": "InputFormatError", "message":
                                "a path expects more than 1e+06 jumps: lambda=1e+300, t=1.0"}

    @pytest.mark.parametrize("G, code", [
        ("(" * 1000 + "x" + ")" * 1000, 2),
        ("+".join(["x"] * 5000), 2),
        ("+".join(["1"] * 5000), 0),
    ], ids=["deep", "flat-negative", "flat"])
    def test_expression_depth(self, capsys, files, G, code):
        # validate recursed into RecursionError (exit 3) on the first two
        got, doc = run_json(capsys, ["validate", "--in", files("model.json", {"G": G})])
        assert got == code and capsys.readouterr().err == ""
        if G.startswith("("):
            assert doc["error"] == {"type": "InputFormatError",
                                    "message": "expression nests deeper than MAX_NESTING = 100"}

    def test_error_envelope_written_to_out(self, tmp_path, files, capsys):
        bad = files("bad.json", BAD_CHAIN_DOC)
        out = str(tmp_path / "err.json")
        assert main(["dual", "--in", bad, "--out", out]) == 1
        assert capsys.readouterr().out == ""
        doc = json.load(open(out))
        assert doc["error"]["type"] == "NotMonotone"
