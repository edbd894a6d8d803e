import json
import os
import sys

# keep BLAS single-threaded: the dense kernels here are tiny and thread
# sync costs dominate otherwise (also required by the acceptance timing).
# BLAS reads these once, when numpy first loads it, so setting one after
# numpy has been imported would do nothing
_UNSET = [var for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
          if var not in os.environ]
if _UNSET and "numpy" in sys.modules:
    raise RuntimeError(
        f"numpy was imported before tests/conftest.py could set {_UNSET}; "
        "set them to 1 in the environment"
    )
for var in _UNSET:
    os.environ[var] = "1"

import numpy as np
import pytest

from rotwave import build_grid, build_stencils

# acceptance criterion -> verdict, measured values and bounds, filled by
# test_acceptance.report and written out when the session ends
ACCEPTANCE: dict[str, dict] = {}


def pytest_sessionfinish(session):
    """Write `acceptance.json` at the root of the run: one entry per
    acceptance criterion that ran, so that how close each came to its bound
    can be compared between changes.  No file when none ran."""
    if ACCEPTANCE:
        text = json.dumps(ACCEPTANCE, indent=2, default=lambda value: value.item())
        (session.config.rootpath / "acceptance.json").write_text(text + "\n")


@pytest.fixture(scope="session")
def grid100():
    return build_grid(100)


@pytest.fixture(scope="session")
def stencils100(grid100):
    return build_stencils(grid100)


@pytest.fixture(scope="session")
def grids():
    """Grid/stencil pairs for convergence studies, keyed by n."""
    out = {}
    for n in (50, 100, 200, 400):
        g = build_grid(n)
        out[n] = (g, build_stencils(g))
    return out


def clear_shared():
    """Drop every shared grid with all that hangs off it, the shared truths
    too: the package's one clear (`build_grid.cache_clear()`)."""
    build_grid.cache_clear()


def observed_order(ns, errors, floor=0.0):
    """Least-squares convergence order, ignoring error values at the
    roundoff floor.  Returns +inf when everything is already at the floor."""
    ns = np.asarray(ns, float)
    errors = np.asarray(errors, float)
    keep = errors > floor
    if keep.sum() < 2:
        return float("inf")
    slope = np.polyfit(np.log(ns[keep]), np.log(errors[keep]), 1)[0]
    return float(-slope)


def wl2(grid, values):
    return float(np.sqrt(np.sum(np.abs(values) ** 2 * grid.weights)))
