"""The stack loads scipy's two compiled modules, not their packages.

``repro.lp.scipy_backend.scipy_extension`` loads HiGHS
(``scipy.optimize._highspy._core``) and the max-flow
(``scipy.sparse.csgraph._flow``) without running ``scipy.optimize`` or
``scipy.sparse.csgraph``'s ``__init__``, which cost most of a cold import.
Each check runs in a fresh interpreter, because the import order is what is
under test; none measures time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

HIGHS = "scipy.optimize._highspy._core"
FLOW = "scipy.sparse.csgraph._flow"


def _run(code: str) -> dict:
    """Run *code* in a new interpreter with ``src`` on the path; it prints
    one JSON object as its last line."""
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_the_stack_imports_neither_package():
    loaded = _run(
        """
        import json, sys
        import repro, repro.service, repro.simulator, repro.cli
        print(json.dumps(sorted(sys.modules)))
        """
    )
    for package in ("scipy.optimize", "scipy.sparse.csgraph", "scipy.sparse.linalg"):
        assert package not in loaded, f"importing the stack loaded {package}"
    assert HIGHS in loaded and FLOW in loaded


def test_scipy_imported_after_the_stack_shares_its_modules():
    found = _run(
        """
        import json
        import numpy as np
        from repro.core import placement
        from repro.lp import scipy_backend
        import scipy.sparse.csgraph
        from scipy.optimize import LinearConstraint, linprog, milp
        from scipy.optimize._highspy import _core

        lp = linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        mip = milp(
            [1.0, 1.0],
            constraints=LinearConstraint([[1.0, 1.0]], lb=1.5),
            integrality=[1, 1],
        )
        print(json.dumps({
            "highs": _core is scipy_backend._h,
            "flow": scipy.sparse.csgraph.maximum_flow is placement.maximum_flow,
            "linprog": [lp.status, lp.fun],
            "milp": [mip.status, mip.fun],
            "paths": scipy.sparse.csgraph.shortest_path(np.array([[0, 1], [1, 0]])).tolist(),
        }))
        """
    )
    assert found == {
        "highs": True,
        "flow": True,
        "linprog": [0, 1.0],
        "milp": [0, 2.0],
        "paths": [[0.0, 1.0], [1.0, 0.0]],
    }


def test_the_loader_reuses_modules_scipy_already_loaded():
    found = _run(
        """
        import json, sys
        import scipy.optimize, scipy.sparse.csgraph
        highs, flow = sys.modules["%s"], sys.modules["%s"]
        from repro.core import placement
        from repro.lp import scipy_backend
        print(json.dumps({
            "highs": scipy_backend._h is highs is scipy.optimize._highspy._core,
            "flow": placement.maximum_flow is flow.maximum_flow,
            "again": scipy_backend.scipy_extension("%s") is highs,
        }))
        """
        % (HIGHS, FLOW, HIGHS)
    )
    assert found == {"highs": True, "flow": True, "again": True}


@pytest.mark.parametrize(("name", "importer"), [(HIGHS, "repro.lp"), (FLOW, "repro.core")])
def test_a_missing_module_is_an_import_error_naming_it(name, importer):
    found = _run(
        """
        import json
        from importlib.machinery import PathFinder

        real = PathFinder.find_spec

        def find_spec(name, path=None, target=None):
            return None if name == %r else real(name, path, target)

        PathFinder.find_spec = find_spec
        try:
            import %s
        except ImportError as exc:
            print(json.dumps({"name": exc.name, "message": str(exc)}))
        else:
            print(json.dumps(None))
        """
        % (name, importer)
    )
    assert found == {"name": name, "message": f"no module named {name!r}"}
