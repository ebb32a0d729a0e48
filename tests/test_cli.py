import json
import math

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
                                       "lattice.lo -0.5", "pairs 2.5"])
    def test_malformed_job_is_parse_error(self, capsys, files, field):
        doc_in = {
            "op": "survival",
            "model": MODEL_DOC,
            "lattice": {"h": 0.5, "lo": -4, "hi": 4},
            "x0": 0, "y": 2, "t": 0.5, "reps": 1000, "seed": 2,
        }
        if " " in field:  # a non-integral number where an integer belongs
            key, value = field.split()
            if key == "pairs":
                doc_in.update(op="duality", pairs=[[0, float(value)]])
            elif key == "lattice.lo":
                doc_in["lattice"]["lo"] = float(value)
            else:
                doc_in[key] = float(value)
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

    def test_every_error_has_an_exit_code(self):
        assert MonodualError.exit_code == 3
        codes = {cls.__name__: cls.exit_code
                 for cls in MonodualError.__subclasses__()}
        assert set(codes.values()) <= {1, 2, 3}
        assert {name for name, code in codes.items() if code == 2} == {
            "InputFormatError", "NegativeRate"}
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

    def test_internal_error_unresolved_tail(self, capsys, files):
        doc_in = {"nu": {"case": "tabulated", "right_tail": "0-1"}}
        path = files("neg.json", doc_in)
        code, doc = run_json(
            capsys, ["discretize", "--in", path, "--h", "0.5", "--window=0:4"]
        )
        assert code == 3
        assert doc["error"]["type"] == "TailMassUnresolved"

    def test_error_envelope_written_to_out(self, tmp_path, files, capsys):
        bad = files("bad.json", BAD_CHAIN_DOC)
        out = str(tmp_path / "err.json")
        assert main(["dual", "--in", bad, "--out", out]) == 1
        assert capsys.readouterr().out == ""
        doc = json.load(open(out))
        assert doc["error"]["type"] == "NotMonotone"
