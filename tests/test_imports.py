"""scipy is imported by the functions that use it, not by the package.

Each case runs in a fresh interpreter, so no scipy subpackage is loaded
before its first call, and must give the same result as in this process,
where the test modules have loaded scipy already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from monodual import qmatrix

from test_cli import MODEL_DOC

SCIPY_SUBPACKAGES = ("scipy.integrate", "scipy.sparse", "scipy.special", "scipy.optimize")

# Each case assigns a JSON value to `result`.
PRELUDE = """
import hashlib
import numpy as np
from monodual.generator import Lattice, discretize, model_from_dict
from monodual.qmatrix import (
    RateMatrix, dual_qmatrix, from_dense, ratematrix_to_json, transition_matrix)
"""

# a kink inside the bin [0.3, 0.4) fails the Gauss-Legendre check, so
# the rate table goes through the bisection of failing panels
KINKED_DISCRETIZE = """
doc = {"nu": {"case": "density", "density": "e^(-abs(y-0.37))", "support_sign": "positive"}}
result = ratematrix_to_json(discretize(model_from_dict(doc), Lattice(h=0.1, lo=0, hi=10)))
"""

# every moment panel of the CLI tests' model passes its check on the
# 101-point grid of x in [-5, 5]
VALIDATE_MODEL_DOC = f"""
from monodual.generator import validate_model
grid = Lattice(h=0.1, lo=-50, hi=50).points()
result = validate_model(model_from_dict({MODEL_DOC!r}), grid).to_dict()
"""

# the dual generator of the CLI tests' model on a Gaussian bump: every
# Gauss-Legendre panel of the jump integral passes its check
APPLY_MODEL_DOC = f"""
import math
from monodual.dualgen import dual_generator_apply, dual_levy
coeffs = dual_levy(model_from_dict({MODEL_DOC!r}))
result = [dual_generator_apply(coeffs, lambda x: math.exp(-x * x), x, convention=c).hex()
          for x in (-1.5, 0.4) for c in ("y-factor", "indicator")]
"""

# kill-rate steps put dual entries in far columns: B is multiplied as CSR
KILL_STEP_DUAL_EVOLVE = """
n = 120
q = np.zeros((n, n))
i = np.arange(n - 1)
q[i, i + 1], q[i + 1, i] = 1.3, 0.7
kill = np.where(np.arange(n) < n // 2, 0.3, 0.0)
tm = transition_matrix(dual_qmatrix(from_dense(0, n - 1, q, boundary="kill", kill=kill)), 1.0)
result = [hashlib.sha256(tm.P.tobytes()).hexdigest(), tm.error_bound.hex()]
"""

# a 13-state birth-death chain takes the tiled dense product
BIRTH_DEATH_EVOLVE = """
rates = {**{(n, 1): 1.0 for n in range(12)}, **{(n, -1): 0.5 for n in range(1, 13)}}
tm = transition_matrix(RateMatrix(0, 12, "absorb", rates), 0.5)
result = [hashlib.sha256(tm.P.tobytes()).hexdigest(), tm.error_bound.hex()]
"""


def _fresh(case: str):
    """Subpackages loaded by the package import, ``result``, and those loaded after."""
    script = textwrap.dedent(f"""
        import json, sys
        import monodual, monodual.cli

        def loaded():
            return sorted(m for m in {SCIPY_SUBPACKAGES!r} if m in sys.modules)

        before = loaded()
    """) + PRELUDE + case + "print(json.dumps([before, result, loaded()]))\n"
    src = str(Path(qmatrix.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def _here(case: str):
    scope = {}
    exec(PRELUDE + case, scope)
    return json.loads(json.dumps(scope["result"]))


def test_package_import_loads_no_scipy_subpackage():
    assert _fresh("result = None\n") == [[], None, []]


def test_kinked_discretize_imports_no_integrate():
    before, result, after = _fresh(KINKED_DISCRETIZE)
    assert before == [] and after == []
    assert result == _here(KINKED_DISCRETIZE)


def test_validate_without_fallback_imports_no_integrate():
    before, result, after = _fresh(VALIDATE_MODEL_DOC)
    assert before == [] and after == []
    assert result == _here(VALIDATE_MODEL_DOC)


def test_dual_generator_apply_imports_no_integrate():
    before, result, after = _fresh(APPLY_MODEL_DOC)
    assert before == [] and after == []
    assert result == _here(APPLY_MODEL_DOC)


def test_sparse_product_imports_sparse():
    before, result, after = _fresh(KILL_STEP_DUAL_EVOLVE)
    assert before == [] and after == ["scipy.sparse", "scipy.special"]
    assert result == _here(KILL_STEP_DUAL_EVOLVE)


def test_dense_product_imports_special_only():
    before, result, after = _fresh(BIRTH_DEATH_EVOLVE)
    assert before == [] and after == ["scipy.special"]
    assert result == _here(BIRTH_DEATH_EVOLVE)
