"""No command loads scipy: the float search runs the package's own bounded
Nelder-Mead on numpy, so every command, exact, probe or search, runs with
scipy absent, and scipy, sympy and mpmath stay out of every module's load.
Only the float commands load numpy: the exact ones never import it, and only
the float layers, degeneracy and fibers, import it at module load."""

import ast
import json

import pytest

from helpers import SEARCHED_NONDEG, SEARCHED_TAME, SRC, run_fresh

HEAVY = ("scipy", "sympy", "mpmath")

EXACT = [
    ["newton", "--corpus", "fig1"],
    ["faces", "--corpus", "tibar"],
    ["vanishing", "--corpus", "fig1"],
    ["zeta", "--corpus", "d_n", "--params", "4"],
    ["arc-limit", "--corpus", "tibar", "--arc", "z1 = 1; z2 = t"],
    ["af-test", "--corpus", "tibar", "--arc", "z1 = 1; z2 = t", "--subset", "1"],
    ["pullback", "--corpus", "tibar", "--cover-a", "2,2"],
    ["join", "--corpus", "tibar", "--corpus2", "fig1"],
    ["corpus"],
]
PROBES = [
    ["transversality", "--corpus", "tibar", "--samples", "5"],
    ["openness", "--corpus", "tibar", "--point", "1, 0", "--samples", "2000"],
]
NO_SEARCH = EXACT + PROBES
# the float layers: the only modules that import numpy, or each other, at load
FLOAT_LAYERS = ("degeneracy", "fibers")

# decided exactly (no Nelder-Mead start), decided exactly, searched
SEARCHES = [
    ["nondeg", "--corpus", "tibar", "--budget", "1"],
    ["tame", "--corpus", "tibar_a", "--params", "2"],
    SEARCHED_NONDEG,
]

SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
import mixedmilnor.cli as cli

def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    return code, out.getvalue()

no_search, search = json.loads(sys.argv[1])
codes = [run(argv)[0] for argv in no_search]
code, out = run(search)
verdicts = json.loads(out)["result"].get("verdicts", [])
restarts = sum((v.get("stats") or {}).get("restarts", 0) for v in verdicts)
print(json.dumps({"codes": codes, "code": code, "scipy": "scipy" in sys.modules, "restarts": restarts}))
"""


@pytest.mark.parametrize("search", SEARCHES, ids=["nondeg-exact", "tame-exact", "nondeg-searched"])
def test_no_command_loads_scipy(search):
    got = run_fresh(SCRIPT, json.dumps([NO_SEARCH, search]))
    assert got["codes"] == [0] * len(NO_SEARCH)
    assert got["code"] == 0 and not got["scipy"]
    assert (got["restarts"] >= 1) == (search is SEARCHED_NONDEG)


BLOCKABLE = """
import io, json, sys
from contextlib import redirect_stdout
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from mixedmilnor import cli, degeneracy

starts = []
real_minimize = degeneracy.minimize

def counted(*args, **kwargs):
    starts.append(1)
    return real_minimize(*args, **kwargs)

degeneracy.minimize = counted
reports = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    reports.append([code, out.getvalue(), len(starts)])
print(json.dumps(reports))
"""


def test_searches_run_with_scipy_blocked():
    requests = json.dumps([SEARCHED_NONDEG, SEARCHED_TAME])
    blocked = run_fresh(BLOCKABLE, "blocked", requests)
    assert blocked == run_fresh(BLOCKABLE, "importable", requests)
    (nondeg_code, _, nondeg_starts), (tame_code, _, all_starts) = blocked
    assert nondeg_code == tame_code == 0
    assert 0 < nondeg_starts < all_starts


NUMPY_LOADED = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import mixedmilnor.cli as cli

def loaded(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--json"])
    return [code, "numpy" in sys.modules]

exact, float_command = json.loads(sys.argv[1])
print(json.dumps({"exact": [loaded(argv) for argv in exact], "float": loaded(float_command)}))
"""


@pytest.mark.parametrize("float_command", [SEARCHES[0], SEARCHES[1], *PROBES],
                         ids=["nondeg", "tame", "transversality", "openness"])
def test_only_the_float_commands_load_numpy(float_command):
    # an openness point that fails to parse is refused before fibers loads
    exact = [*EXACT, ["openness", "--corpus", "tibar", "--point", "1, x"]]
    got = run_fresh(NUMPY_LOADED, json.dumps([exact, float_command]))
    assert got["exact"] == [[0, False]] * len(EXACT) + [[1, False]]
    assert got["float"] == [0, True]


def test_float_verdicts_resolve_on_first_access():
    script = """
import json, sys
import mixedmilnor
before = "numpy" in sys.modules
falsify = mixedmilnor.falsify_nondegeneracy
print(json.dumps([before, falsify.__module__, "numpy" in sys.modules]))
"""
    assert run_fresh(script) == [False, "mixedmilnor.degeneracy", True]


def _top_level_imports(tree):
    """Import nodes that run at module load: everything outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _loaded(node):
    """The modules an import node loads, by top-level name; the package's own by short name."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if node.level and not node.module:  # from . import a, b
        return [alias.name for alias in node.names]
    return [node.module.split(".")[0]]


def test_no_heavy_import_at_module_load():
    for path in sorted((SRC / "mixedmilnor").glob("*.py")):
        for node in _top_level_imports(ast.parse(path.read_text())):
            names = _loaded(node)
            heavy = [name for name in names if name in HEAVY]
            assert not heavy, f"{path.name}:{node.lineno} imports {heavy} at module load"
            if path.stem not in FLOAT_LAYERS:
                floats = [name for name in names if name in ("numpy", *FLOAT_LAYERS)]
                assert not floats, f"{path.name}:{node.lineno} imports {floats} at module load"


def test_no_module_imports_scipy():
    for path in sorted((SRC / "mixedmilnor").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [name for name in names if name.split(".")[0] == "scipy"], f"{path.name}:{node.lineno}"
