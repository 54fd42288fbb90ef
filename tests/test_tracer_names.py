"""The package names that perfbench's tracer reaches by name must exist, so a
refactor that removes one fails here and not only on a traced bench pass."""

import importlib
import importlib.util
import json
from pathlib import Path

from helpers import SEARCHED_NONDEG, run_fresh
from mixedmilnor import degeneracy
from mixedmilnor.poly import MixedPoly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = load_tracing()
    for meth in tracing.POLY_METHODS:
        assert meth in MixedPoly.__dict__, meth
    for short in tracing.LAYERS:
        importlib.import_module(f"mixedmilnor.{short}")
    assert callable(degeneracy.minimize)


TRACED_SEARCH = """
import importlib.util, io, json, sys
from contextlib import redirect_stdout

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from mixedmilnor import cli

with redirect_stdout(io.StringIO()):
    code = cli.main([*json.loads(sys.argv[2]), "--json"])
per_name, _ = tracer.summary()
print(json.dumps({"code": code, "spans": per_name.get("scipy.minimize", (0,))[0],
                  "starts": tracer.counters["degeneracy.starts"],
                  "evals": tracer.counters["degeneracy.objective_evals"]}))
"""


def test_traced_search_reaches_the_lazy_minimize():
    """The tracer wraps degeneracy.minimize, the package's Nelder-Mead, under
    the span name scipy.minimize; a traced search records that span and its
    counters."""
    got = run_fresh(TRACED_SEARCH, str(TRACING), json.dumps(SEARCHED_NONDEG))
    assert got["code"] == 0
    assert got["spans"] >= 1
    assert got["starts"] >= 1 and got["evals"] > 0
