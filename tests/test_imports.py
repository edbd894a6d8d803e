"""Import contract of the package, checked in fresh interpreters.

A cold `rotwave` start loads scipy's compiled LAPACK module and nothing else
of scipy, and no sympy.  That module is registered under its canonical name,
so it is the same object whichever of rotwave and `scipy.linalg` is imported
first.
"""

import os
import pathlib
import subprocess
import sys
import types

import rotwave

# one m3 state solve (complex gbtrf/gbtrs) and one Riesz map (the real ones)
SOLVES = """
import numpy as np
from rotwave import (InverseProblem, ObservationScheme, ParameterMetric, build_grid,
                     build_stencils, manufacture_truth)
truth = manufacture_truth("m3_default")
grid = build_grid(32)
stencils = build_stencils(grid)
problem = InverseProblem(grid=grid, stencils=stencils, m=truth.m,
                         omega_freq=truth.omega_freq, source=truth.source(grid),
                         scheme=ObservationScheme(), omega_ref=truth.omega_ref)
_, psi = problem.state(truth.gamma_true, truth.omega_exact(grid).values)
q = ParameterMetric(stencils).riesz(np.cos(grid.nodes))
assert np.all(np.isfinite(psi.values)) and np.all(np.isfinite(q))
"""


def _run(code):
    src = str(pathlib.Path(rotwave.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_loads_only_scipy_flapack():
    loaded = _run(
        "import sys, rotwave.cli\n"
        + SOLVES
        + "names = ('sympy', 'scipy', 'scipy.linalg', 'scipy.special', 'scipy.linalg._flapack')\n"
        + "print(sorted(set(names) & set(sys.modules)))"
    )
    assert loaded == "['scipy.linalg._flapack']"


def test_scipy_linalg_imported_after_rotwave_reuses_flapack():
    out = _run(
        "import numpy as np, rotwave.cli\n"
        + SOLVES
        + "import scipy.linalg, scipy.linalg.lapack\n"
        "from rotwave import operator\n"
        "band = np.zeros((22, 8), dtype=complex)\n"
        "gbtrf = scipy.linalg.lapack.get_lapack_funcs('gbtrf', (band,))\n"
        "x = scipy.linalg.solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 4.0]))\n"
        "print(scipy.linalg.lapack._flapack is operator._flapack,\n"
        "      gbtrf is operator._flapack.zgbtrf, np.allclose(x, [1.0, 1.0]))"
    )
    assert out == "True True True"


def test_rotwave_imported_after_scipy_linalg_reuses_its_flapack():
    out = _run(
        "import sys, scipy.linalg\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "import rotwave.cli\n"
        + SOLVES
        + "from rotwave import operator\n"
        "print(operator._flapack is flapack, sys.modules['scipy.linalg._flapack'] is flapack)"
    )
    assert out == "True True"


def test_star_import_binds_no_modules():
    # `rotwave.operator` must not rebind the caller's stdlib `operator`
    names = {}
    exec("import operator\nfrom rotwave import *", names)
    assert names["operator"] is sys.modules["operator"]
    modules = [k for k, v in names.items() if k[0] != "_" and isinstance(v, types.ModuleType)]
    assert modules == ["operator"]
